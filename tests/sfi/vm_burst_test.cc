// Vm::Burst correctness: a burst is a loop of Run() with the entry cost paid
// once — results, faults, fuel boundaries, and final VmStats must be
// bit-identical to the equivalent Run() loop on both backends and in both
// execution modes, and every slot must behave exactly like a memory of one
// window that starts at the slot — no more: a sandboxed program cannot reach
// a neighbouring slot. Also covers the persistent-JitContext plumbing the
// burst relies on: helper bindings must stay visible across runs, and a
// plain Run() after a burst must see slot 0 again.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "src/sfi/assembler.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace para::sfi {
namespace {

// mem[arg0] as a u64, plus arg... no: returns mem64[a0] + 1000.
VerifiedProgram LoadAtArgProgram() {
  Assembler a;
  a.EntryPoint();
  a.EmitLdArg(0);
  a.Emit(Op::kLoad64);
  a.EmitPush(1000);
  a.Emit(Op::kAdd);
  a.Emit(Op::kRetV);
  auto program = a.Finish(/*memory_bytes=*/4096);
  EXPECT_TRUE(program.ok());
  auto verified = Verify(*program);
  EXPECT_TRUE(verified.ok());
  return std::move(*verified);
}

uint64_t CounterHelper(void* ctx, uint64_t arg) {
  auto* counter = static_cast<uint64_t*>(ctx);
  return ++*counter + arg;
}

// Helper-calling program: returns helper0(a0).
VerifiedProgram HostCallProgram() {
  Assembler a;
  a.EntryPoint();
  a.EmitLdArg(0);
  a.EmitHostCall(0);
  a.Emit(Op::kRetV);
  auto program = a.Finish(/*memory_bytes=*/256);
  EXPECT_TRUE(program.ok());
  auto verified = Verify(*program);
  EXPECT_TRUE(verified.ok());
  return std::move(*verified);
}

// Double load: returns mem64[mem64[0]], so the second access goes wherever
// the word at the start of the window points — an address no analysis can
// bound, checked at run time in sandboxed mode.
VerifiedProgram DerefProgram() {
  auto program = Assembler::Assemble("push 0\nload64\nload64\nretv", /*memory_bytes=*/256);
  EXPECT_TRUE(program.ok());
  auto verified = Verify(*program);
  EXPECT_TRUE(verified.ok());
  return std::move(*verified);
}

void Store64(std::span<uint8_t> window, size_t off, uint64_t v) {
  std::memcpy(window.data() + off, &v, 8);
}

uint64_t Load64(std::span<uint8_t> window, size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, window.data() + off, 8);
  return v;
}

void FillMemory(Vm& vm) {
  for (size_t off = 0; off + 8 <= vm.memory().size(); off += 8) {
    const uint64_t v = off * 3 + 7;
    std::memcpy(vm.memory().data() + off, &v, 8);
  }
}

class VmBurstTest : public ::testing::TestWithParam<std::tuple<ExecMode, VmBackend>> {};

TEST_P(VmBurstTest, BurstMatchesRunLoopBitExactly) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = LoadAtArgProgram();

  Vm loop_vm(&program, mode, backend);
  Vm burst_vm(&program, mode, backend);
  FillMemory(loop_vm);
  FillMemory(burst_vm);
  ASSERT_EQ(loop_vm.backend(), burst_vm.backend());

  std::vector<uint64_t> loop_results;
  for (uint64_t i = 0; i < 64; ++i) {
    auto run = loop_vm.Run(0, (i * 8) % 512);
    ASSERT_TRUE(run.ok());
    loop_results.push_back(*run);
  }
  {
    Vm::Burst burst = burst_vm.BeginBurst(0);
    for (uint64_t i = 0; i < 64; ++i) {
      auto run = burst.Call(/*slot=*/0, (i * 8) % 512);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(*run, loop_results[i]) << "i=" << i;
    }
  }  // burst closes: deferred stats flush

  const VmStats& a = loop_vm.stats();
  const VmStats& b = burst_vm.stats();
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.bounds_checks, b.bounds_checks);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.host_calls, b.host_calls);
  EXPECT_EQ(a.jit_runs, b.jit_runs);
}

TEST_P(VmBurstTest, MemOffRebasesGuestAddressZero) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = LoadAtArgProgram();
  Vm vm(&program, mode, backend, /*slots=*/4);
  FillMemory(vm);

  // Four 4096-byte windows side by side, then the 8-byte slack.
  ASSERT_EQ(vm.memory().size(), 4 * 4096u + 8);

  // Guest address 0 of slot i is host offset i * window: loading guest 0
  // must read the start of the slot's window.
  Vm::Burst burst = vm.BeginBurst(0);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(vm.slot(i).data(), vm.memory().data() + i * 4096);
    ASSERT_EQ(vm.slot(i).size(), 4096u);
    auto run = burst.Call(i, /*a0=*/0);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(*run, Load64(vm.slot(i), 0) + 1000) << "slot " << i;
  }
}

TEST_P(VmBurstTest, SandboxedSlotCannotReadItsNeighbour) {
  const auto [mode, backend] = GetParam();
  if (mode != ExecMode::kSandboxed) {
    GTEST_SKIP() << "bounds checks are a sandboxed-mode property";
  }
  VerifiedProgram program = DerefProgram();
  constexpr size_t kSlots = 4;
  Vm vm(&program, mode, backend, kSlots);
  const size_t window = vm.slot(0).size();
  ASSERT_EQ(window, 256u);

  // Positive control: the last word of every window is reachable...
  for (size_t i = 0; i < kSlots; ++i) {
    Store64(vm.slot(i), 0, window - 8);
    Store64(vm.slot(i), window - 8, 100 + i);
  }
  auto first = vm.Run(0);
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_EQ(*first, 100u);
  {
    Vm::Burst burst = vm.BeginBurst(0);
    for (size_t i = 0; i < kSlots; ++i) {
      auto run = burst.Call(i);
      ASSERT_TRUE(run.ok()) << run.status().message();
      EXPECT_EQ(*run, 100 + i);
    }
  }

  // ...but the word just past it — the next slot's first word, or the
  // slack after the last slot — is not, in any slot, through any entry.
  for (size_t i = 0; i < kSlots; ++i) {
    Store64(vm.slot(i), 0, window);
  }
  auto run = vm.Run(0);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(run.status().message(), "load out of bounds");
  {
    Vm::Burst burst = vm.BeginBurst(0);
    for (size_t i = 0; i < kSlots; ++i) {
      auto call = burst.Call(i);
      ASSERT_FALSE(call.ok()) << "slot " << i << " read " << *call;
      EXPECT_EQ(call.status().code(), ErrorCode::kOutOfRange) << "slot " << i;
    }
  }
  uint64_t pairs[2 * kSlots] = {};
  bool fast = false;
  {
    Vm::Burst burst = vm.BeginBurst(0);
    fast = burst.CallMany(0, kSlots, pairs);
  }
  EXPECT_EQ(fast, vm.backend() == VmBackend::kJit);
  if (fast) {
    for (size_t i = 0; i < kSlots; ++i) {
      EXPECT_NE(pairs[2 * i + 1], 0u) << "slot " << i << " read " << pairs[2 * i];
    }
  }
}

TEST_P(VmBurstTest, HostHelperBindingsStayLiveAcrossRuns) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = HostCallProgram();
  Vm vm(&program, mode, backend);

  // Bind AFTER construction, re-bind between runs: the persistent context
  // must observe the updated helper table (it points at the Vm's live
  // arrays, not a snapshot).
  uint64_t counter_a = 0;
  vm.SetHostHelper(0, &CounterHelper, &counter_a);
  ASSERT_TRUE(vm.Run(0, 10).ok());
  EXPECT_EQ(counter_a, 1u);

  uint64_t counter_b = 100;
  vm.SetHostHelper(0, &CounterHelper, &counter_b);
  Vm::Burst burst = vm.BeginBurst(0);
  auto run = burst.Call(0, 10);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(*run, 111u);  // ++100 + 10
  EXPECT_EQ(counter_a, 1u);
  EXPECT_EQ(counter_b, 101u);
}

TEST_P(VmBurstTest, MemoryResizeRefreshesCachedBase) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = LoadAtArgProgram();
  Vm vm(&program, mode, backend, /*slots=*/2);
  const uint64_t sentinel = 0xDEADBEEFCAFEull;
  Store64(vm.slot(0), 0, sentinel);
  Store64(vm.slot(1), 0, 7);

  // A burst points the context's memory view at other slots; a plain Run
  // afterwards must see slot 0 again.
  {
    Vm::Burst burst = vm.BeginBurst(0);
    auto call = burst.Call(1, 0);
    ASSERT_TRUE(call.ok());
    EXPECT_EQ(*call, 7u + 1000);
  }
  auto plain = vm.Run(0, 0);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(*plain, sentinel + 1000);

  // The same after a batch entry that ends on slot 1.
  {
    Vm::Burst burst = vm.BeginBurst(0);
    uint64_t pairs[2] = {};
    burst.CallMany(1, 1, pairs);
  }
  plain = vm.Run(0, 0);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(*plain, sentinel + 1000);
}

TEST_P(VmBurstTest, BurstOnUnknownEntryPointFails) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = LoadAtArgProgram();
  Vm vm(&program, mode, backend);
  Vm::Burst burst = vm.BeginBurst(7);
  auto run = burst.Call(0, 0);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kNotFound);
}

TEST_P(VmBurstTest, CallManyMatchesCallLoopBitExactly) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = LoadAtArgProgram();

  constexpr size_t kCount = 32;
  Vm loop_vm(&program, mode, backend, kCount);
  Vm many_vm(&program, mode, backend, kCount);
  FillMemory(loop_vm);
  FillMemory(many_vm);
  ASSERT_EQ(loop_vm.backend(), many_vm.backend());

  std::vector<uint64_t> pairs(2 * kCount, 0xABABABAB);
  bool fast = false;
  {
    Vm::Burst burst = many_vm.BeginBurst(0);
    fast = burst.CallMany(/*first_slot=*/0, kCount, pairs.data());
  }
  if (many_vm.backend() != VmBackend::kJit) {
    // Threaded backend: no batch entry; callers must fall back to Call().
    EXPECT_FALSE(fast);
    GTEST_SKIP() << "CallMany is a JIT-backend entry point";
  }
  ASSERT_TRUE(fast);

  {
    Vm::Burst burst = loop_vm.BeginBurst(0);
    for (size_t i = 0; i < kCount; ++i) {
      auto run = burst.Call(i, /*a0=*/0);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(pairs[2 * i + 1], 0u) << "slot " << i << " faulted";
      EXPECT_EQ(pairs[2 * i], *run) << "slot " << i;
    }
  }

  const VmStats& a = loop_vm.stats();
  const VmStats& b = many_vm.stats();
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.bounds_checks, b.bounds_checks);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.host_calls, b.host_calls);
  EXPECT_EQ(a.jit_runs, b.jit_runs);
}

TEST_P(VmBurstTest, CallManyFaultingSlotDoesNotStopTheBurst) {
  const auto [mode, backend] = GetParam();
  if (mode != ExecMode::kSandboxed) {
    GTEST_SKIP() << "per-slot faults are a sandboxed-mode property";
  }
  VerifiedProgram program = DerefProgram();
  Vm vm(&program, mode, backend, /*slots=*/3);
  if (vm.backend() != VmBackend::kJit) {
    GTEST_SKIP() << "CallMany is a JIT-backend entry point";
  }

  // Slot 1's word 0 points one past its window, so its second load — a
  // data-dependent address — faults; slots 0 and 2 read their own word 8.
  for (size_t i = 0; i < 3; ++i) {
    Store64(vm.slot(i), 0, i == 1 ? vm.slot(i).size() : 8);
    Store64(vm.slot(i), 8, 500 + i);
  }
  uint64_t pairs[6] = {};
  {
    Vm::Burst burst = vm.BeginBurst(0);
    ASSERT_TRUE(burst.CallMany(/*first_slot=*/0, /*count=*/3, pairs));
  }
  EXPECT_EQ(pairs[1], 0u);
  EXPECT_EQ(pairs[0], 500u);
  EXPECT_NE(pairs[3], 0u);
  EXPECT_EQ(pairs[5], 0u);
  EXPECT_EQ(pairs[4], 502u);
  // The faulting slot reports what Call() reports for it.
  Vm::Burst burst = vm.BeginBurst(0);
  auto run = burst.Call(1, /*a0=*/0);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kOutOfRange);
}

TEST_P(VmBurstTest, CallManyRejectsLayoutsPastTheSlack) {
  const auto [mode, backend] = GetParam();
  VerifiedProgram program = LoadAtArgProgram();
  Vm vm(&program, mode, backend, /*slots=*/4);
  FillMemory(vm);

  uint64_t pairs[16] = {};
  Vm::Burst burst = vm.BeginBurst(0);
  // Ranges that end past the last slot are rejected up front, and so is an
  // empty range; out is never touched.
  EXPECT_FALSE(burst.CallMany(/*first_slot=*/3, /*count=*/2, pairs));
  EXPECT_FALSE(burst.CallMany(/*first_slot=*/0, /*count=*/5, pairs));
  EXPECT_FALSE(burst.CallMany(/*first_slot=*/4, /*count=*/1, pairs));
  EXPECT_FALSE(burst.CallMany(/*first_slot=*/1, std::numeric_limits<size_t>::max(), pairs));
  EXPECT_FALSE(burst.CallMany(/*first_slot=*/0, /*count=*/0, pairs));
  for (uint64_t word : pairs) {
    EXPECT_EQ(word, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndBackends, VmBurstTest,
    ::testing::Values(std::make_tuple(ExecMode::kSandboxed, VmBackend::kThreaded),
                      std::make_tuple(ExecMode::kTrusted, VmBackend::kThreaded),
                      std::make_tuple(ExecMode::kSandboxed, VmBackend::kAuto),
                      std::make_tuple(ExecMode::kTrusted, VmBackend::kAuto)),
    [](const ::testing::TestParamInfo<std::tuple<ExecMode, VmBackend>>& info) {
      std::string name =
          std::get<0>(info.param) == ExecMode::kSandboxed ? "Sandboxed" : "Trusted";
      name += std::get<1>(info.param) == VmBackend::kThreaded ? "Threaded" : "Auto";
      return name;
    });

}  // namespace
}  // namespace para::sfi
