// E7 — certification vs software fault isolation (§4, §5).
//
// Paper claim: "After a component's certificate is validated by the kernel
// it does not require any further software checks ... Verifying a
// certificate at load-time obviates the need for run time fault checks thus
// allowing components to be more efficient."
//
// Three measurements:
//   1. the one-time load cost: SHA-256 digest + RSA verify, by code size
//      (and the raw RSA sign/verify rows by modulus size);
//   2. the recurring cost: the same bytecode workload executed trusted
//      (no checks) vs sandboxed (bounds checks + metering);
//   3. the crossover: how many invocations amortize one certification.
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>

#include "src/base/log.h"
#include "src/base/random.h"
#include "src/nucleus/cert.h"
#include "src/sfi/assembler.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace {

using namespace para;           // NOLINT
using namespace para::nucleus;  // NOLINT

// Shared crypto state (keygen excluded from timing).
struct CryptoFixture {
  CryptoFixture() {
    para::Random rng(0xC0DE);
    authority = std::make_unique<CertificationAuthority>(crypto::GenerateKeyPair(1024, rng));
    signer_keys = crypto::GenerateKeyPair(1024, rng);
    grant = authority->Grant("bench-signer", signer_keys.public_key, kCertKernelEligible);
    signer = std::make_unique<Certifier>(
        "bench-signer", signer_keys, grant,
        [](const std::string&, std::span<const uint8_t>, uint32_t) { return OkStatus(); });
    service = std::make_unique<CertificationService>(authority->public_key());
    (void)service->RegisterGrant(grant);
  }

  static CryptoFixture& Get() {
    static CryptoFixture fixture;
    return fixture;
  }

  std::unique_ptr<CertificationAuthority> authority;
  crypto::RsaKeyPair signer_keys;
  DelegationGrant grant;
  std::unique_ptr<Certifier> signer;
  std::unique_ptr<CertificationService> service;
};

// The measured workload: a checksum loop over the component's memory —
// memory-access heavy, so the sandbox tax is visible.
sfi::Program ChecksumProgram() {
  auto program = sfi::Assembler::Assemble(R"(
    ; a0 = number of 8-byte words to checksum (looping over memory)
    push 0          ; mem[8..] holds data; mem[0] is the accumulator
    ldarg 0
  loop:
    dup
    jz done
    dup
    push 8
    mul             ; byte offset
    load64
    push 0
    load64
    add
    push 0
    swap
    store64
    push 1
    sub
    jmp loop
  done:
    drop
    push 0
    load64
    retv
  )");
  PARA_CHECK(program.ok());
  return std::move(*program);
}

void BM_CertifyComponent(benchmark::State& state) {
  // Off-line signing cost (the delegate's side), by component size.
  auto& fx = CryptoFixture::Get();
  std::vector<uint8_t> code(static_cast<size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    auto cert = fx.signer->Certify("bench", 1, code, kCertKernelEligible, 0);
    benchmark::DoNotOptimize(cert);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

void BM_ValidateCertificate(benchmark::State& state) {
  // The kernel's load-time check: digest + signature verify (e = 65537, so
  // verification is much cheaper than signing).
  auto& fx = CryptoFixture::Get();
  std::vector<uint8_t> code(static_cast<size_t>(state.range(0)), 0x5A);
  auto cert = fx.signer->Certify("bench", 1, code, kCertKernelEligible, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.service->Validate(*cert, code));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

// Raw RSA cost by modulus size: the private-key operation a delegate pays
// per certificate, and the public-key check (e = 65537) the kernel pays.
const crypto::RsaKeyPair& KeysOfBits(size_t bits) {
  static std::map<size_t, crypto::RsaKeyPair> keys;
  auto it = keys.find(bits);
  if (it == keys.end()) {
    para::Random rng(0xB175 + bits);
    it = keys.emplace(bits, crypto::GenerateKeyPair(bits, rng)).first;
  }
  return it->second;
}

void BM_RsaSign(benchmark::State& state) {
  const crypto::RsaKeyPair& keys = KeysOfBits(static_cast<size_t>(state.range(0)));
  const crypto::Digest digest = crypto::Sha256::HashString("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sign(keys.private_key, digest));
  }
}

void BM_RsaVerify(benchmark::State& state) {
  const crypto::RsaKeyPair& keys = KeysOfBits(static_cast<size_t>(state.range(0)));
  const crypto::Digest digest = crypto::Sha256::HashString("bench");
  const std::vector<uint8_t> signature = crypto::Sign(keys.private_key, digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Verify(keys.public_key, digest, signature));
  }
}

void BM_RunTrusted(benchmark::State& state) {
  auto program = sfi::Verify(ChecksumProgram());
  PARA_CHECK(program.ok());
  sfi::Vm vm(&*program, sfi::ExecMode::kTrusted);
  uint64_t words = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.Run(0, words));
  }
  state.counters["instructions_per_call"] =
      static_cast<double>(vm.stats().instructions) / static_cast<double>(state.iterations());
}

void BM_RunSandboxed(benchmark::State& state) {
  auto program = sfi::Verify(ChecksumProgram());
  PARA_CHECK(program.ok());
  sfi::Vm vm(&*program, sfi::ExecMode::kSandboxed);
  uint64_t words = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.Run(0, words));
  }
  state.counters["bounds_checks_per_call"] =
      static_cast<double>(vm.stats().bounds_checks) / static_cast<double>(state.iterations());
}

void BM_CertificationCrossover(benchmark::State& state) {
  // End-to-end: validation once + N trusted runs vs N sandboxed runs.
  // Reported counter: the N at which the two strategies cost the same
  // (estimated from per-run deltas measured inline).
  auto& fx = CryptoFixture::Get();
  auto verified = sfi::Verify(ChecksumProgram());
  PARA_CHECK(verified.ok());
  const std::vector<uint8_t>& code = verified->identity();
  auto cert = fx.signer->Certify("bench", 1, code, kCertKernelEligible, 0);

  uint64_t words = 64;
  for (auto _ : state) {
    // One load-time validation...
    benchmark::DoNotOptimize(fx.service->Validate(*cert, code));
    // ...then the component runs checked-free.
    sfi::Vm vm(&*verified, sfi::ExecMode::kTrusted);
    for (int i = 0; i < 100; ++i) {
      benchmark::DoNotOptimize(vm.Run(0, words));
    }
  }

  // Estimate the crossover outside the timed loop.
  auto now = [] {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  sfi::Vm trusted(&*verified, sfi::ExecMode::kTrusted);
  sfi::Vm sandboxed(&*verified, sfi::ExecMode::kSandboxed);
  constexpr int kProbes = 2000;
  double t0 = now();
  for (int i = 0; i < kProbes; ++i) {
    benchmark::DoNotOptimize(trusted.Run(0, words));
  }
  double t1 = now();
  for (int i = 0; i < kProbes; ++i) {
    benchmark::DoNotOptimize(sandboxed.Run(0, words));
  }
  double t2 = now();
  double trusted_ns = (t1 - t0) / kProbes;
  double sandboxed_ns = (t2 - t1) / kProbes;

  double v0 = now();
  for (int i = 0; i < 20; ++i) {
    benchmark::DoNotOptimize(fx.service->Validate(*cert, code));
  }
  double validate_ns = (now() - v0) / 20;

  double per_call_saving = sandboxed_ns - trusted_ns;
  state.counters["trusted_ns_per_call"] = trusted_ns;
  state.counters["sandboxed_ns_per_call"] = sandboxed_ns;
  state.counters["validate_ns_once"] = validate_ns;
  state.counters["crossover_calls"] =
      per_call_saving > 0 ? validate_ns / per_call_saving : -1.0;
}

void WorkloadArgs(benchmark::internal::Benchmark* bench) {
  for (long words : {8L, 64L, 256L}) {
    bench->Arg(words);
  }
}

BENCHMARK(BM_CertifyComponent)->Arg(1024)->Arg(16384)->Arg(262144);
BENCHMARK(BM_ValidateCertificate)->Arg(1024)->Arg(16384)->Arg(262144);
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RunTrusted)->Apply(WorkloadArgs);
BENCHMARK(BM_RunSandboxed)->Apply(WorkloadArgs);
BENCHMARK(BM_CertificationCrossover);

}  // namespace

BENCHMARK_MAIN();
