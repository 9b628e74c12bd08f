#include "workloads.h"

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "harness.h"
#include "src/base/log.h"
#include "src/base/random.h"
#include "src/components/net_driver.h"
#include "src/components/protocol_stack.h"
#include "src/crypto/rsa.h"
#include "src/filter/compiler.h"
#include "src/filter/extension.h"
#include "src/filter/filter.h"
#include "src/hw/machine.h"
#include "src/hw/netdev.h"
#include "src/net/stack.h"
#include "src/nucleus/cert.h"
#include "src/nucleus/nucleus.h"
#include "src/sfi/jit.h"
#include "src/sfi/verifier.h"

namespace ib {
namespace {

namespace filter = para::filter;
namespace net = para::net;
namespace nucleus = para::nucleus;
namespace sfi = para::sfi;
using para::OkStatus;
using para::Result;
using para::Status;

constexpr uint64_t kKeySeed = 0x1B5EED;  // fixed: key generation is set-up, not input
// RSA modulus of the authority and the filter compiler's signing key. At
// 1024 bits one signature costs ~17 ms here, so a certified reload with
// procedure chains could not keep imix_reload's 20-per-second schedule;
// 512 bits matches the nucleus authority key the E9 bench uses.
constexpr size_t kKeyBits = 512;
constexpr uint64_t kReloadPeriodNs = 50'000'000;  // imix_reload: 20 reloads per second
constexpr size_t kSetups = 3;                     // set-ups per process; setup_s is their median
constexpr size_t kReloadSamples = 200;            // off-path reloads on the other workloads
constexpr size_t kReplays = 5;                    // control-plane stage replays per traced run
constexpr size_t kKeptSpans = 40'000;             // spans written to the trace file
constexpr uint64_t kSliceNs = 250'000'000;        // timed-phase slice (speed sample, tracing)

// --- Certification keys ------------------------------------------------------

struct Crypto {
  std::unique_ptr<nucleus::CertificationAuthority> authority;
  nucleus::DelegationGrant grant;
  std::unique_ptr<nucleus::Certifier> signer;
  std::unique_ptr<nucleus::CertificationService> service;
};

std::unique_ptr<Crypto> MakeCrypto() {
  para::Random rng(kKeySeed);
  auto c = std::make_unique<Crypto>();
  c->authority = std::make_unique<nucleus::CertificationAuthority>(
      para::crypto::GenerateKeyPair(kKeyBits, rng));
  para::crypto::RsaKeyPair signer_keys = para::crypto::GenerateKeyPair(kKeyBits, rng);
  c->grant = c->authority->Grant("ingress-filter-compiler", signer_keys.public_key,
                                 nucleus::kCertKernelEligible);
  c->signer = std::make_unique<nucleus::Certifier>(
      "ingress-filter-compiler", signer_keys, c->grant,
      [](const std::string&, std::span<const uint8_t>, uint32_t) { return OkStatus(); });
  c->service = std::make_unique<nucleus::CertificationService>(c->authority->public_key());
  PARA_CHECK(c->service->RegisterGrant(c->grant).ok());
  return c;
}

// --- Filter construction -------------------------------------------------------

// Every field a workload depends on is set here, so no environment variable
// (PARA_FILTER_SHARDS feeds shards = 0) can change what a workload measures.
filter::FilterConfig MakeFilterConfig(const WorkloadSpec& spec) {
  static int instance = 0;
  filter::FilterConfig config;
  config.name = std::string("ib_") + WorkloadName(spec.id) + "_" + std::to_string(++instance);
  config.shards = spec.queues;
  config.flow_capacity = spec.flow_capacity;
  config.track_flows = true;
  config.flow_keepalive_across_reloads = false;
  config.events = nullptr;
  config.program_cache = nullptr;
  config.clock = nullptr;
  config.flow_ttl = 0;
  config.compile.backend = filter::CompileBackend::kDecisionTree;
  config.procs = nullptr;
  config.proc_fuel = 100'000;
  config.proc_seed = 0x9E3779B97F4A7C15ull;
  return config;
}

Status LoadRules(filter::PacketFilter& f, const filter::RuleSet& rules, bool certified,
                 Crypto& crypto) {
  return certified ? f.LoadCertified(rules, *crypto.signer, *crypto.service) : f.Load(rules);
}

// --- The oracle at the socket ----------------------------------------------

// Checks every delivered datagram against the frame ring: it must be the
// next frame of the current burst the oracle expects delivered, with the
// stamped sequence number, source and length. A wrongly delivered frame and
// a wrongly dropped one each count one failure.
class Checker {
 public:
  explicit Checker(const Traffic& traffic) : t_(&traffic) {}

  void Begin(size_t burst) {
    pos_ = t_->burst_start[burst];
    end_ = t_->burst_start[burst + 1];
  }
  void OnDatagram(const net::Datagram& d) {
    uint32_t seq = ~0u;
    if (d.payload.size() >= kStampBytes) {
      std::memcpy(&seq, d.payload.data(), 4);
    }
    if (seq < pos_ || seq >= end_ || t_->deliver[seq] == 0 ||
        d.payload.size() != t_->payload_len[seq] || d.src != t_->src_ip[seq]) {
      ++failed;
      return;
    }
    for (uint32_t i = pos_; i < seq; ++i) {
      failed += t_->deliver[i];
    }
    pos_ = seq + 1;
    ++delivered;
    bytes += d.payload.size();
  }
  void End() {
    for (uint32_t i = pos_; i < end_; ++i) {
      failed += t_->deliver[i];
    }
    pos_ = end_;
  }

  uint64_t failed = 0;
  uint64_t delivered = 0;
  uint64_t bytes = 0;

 private:
  const Traffic* t_;
  uint32_t pos_ = 0;
  uint32_t end_ = 0;
};

// Traced-run state shared by the span-recording wrappers.
struct TraceState {
  TraceState() : log(kKeptSpans, 0) {}
  SpanLog log;
  uint64_t burst_id = 0;
  SpanName run_parent = SpanName::kNetOnFrameBurst;  // parent of hook/handler spans
  uint64_t hook_allocs = 0;
  uint64_t handler_allocs = 0;
  uint64_t net_allocs = 0;
};

void BindHandlers(net::ProtocolStack& stack, Checker& checker, TraceState* ts) {
  for (size_t i = 0; i < kBoundPorts; ++i) {
    const auto port = static_cast<net::Port>(kFirstBoundPort + i);
    (void)stack.UnbindPort(port);
    net::DatagramHandler handler;
    if (ts == nullptr) {
      handler = [&checker](const net::Datagram& d) { checker.OnDatagram(d); };
    } else {
      handler = [&checker, ts](const net::Datagram& d) {
        const uint64_t a0 = ThreadAllocs();
        const uint64_t t0 = Ticks();
        checker.OnDatagram(d);
        const uint64_t t1 = Ticks();
        ts->handler_allocs += ThreadAllocs() - a0;
        ts->log.Add(SpanName::kAppSocketHandler, ts->run_parent, ts->burst_id, t0, t1);
      };
    }
    PARA_CHECK(stack.BindPort(port, std::move(handler)).ok());
  }
}

// Installs the filter's hooks on `stack`: bare in the untraced run (no span
// code anywhere on the path), wrapped in span recorders in the traced run.
void InstallHooks(net::ProtocolStack& stack, filter::PacketFilter& f, TraceState* ts) {
  stack.SetEgressFilter(f.Hook());
  if (ts == nullptr) {
    stack.SetIngressFilter(f.Hook());
    stack.SetIngressBatchFilter(f.BatchHook());
    return;
  }
  stack.SetIngressFilter([ts, inner = f.Hook()](const net::PacketView& v,
                                                net::FilterDirection dir) {
    const uint64_t a0 = ThreadAllocs();
    const uint64_t t0 = Ticks();
    const net::FilterDecision d = inner(v, dir);
    const uint64_t t1 = Ticks();
    ts->hook_allocs += ThreadAllocs() - a0;
    ts->log.Add(SpanName::kFilterHook, ts->run_parent, ts->burst_id, t0, t1);
    return d;
  });
  stack.SetIngressBatchFilter([ts, inner = f.BatchHook()](
                                  std::span<const net::PacketView> views,
                                  net::FilterDirection dir,
                                  std::span<net::FilterDecision> decisions) {
    const uint64_t a0 = ThreadAllocs();
    const uint64_t t0 = Ticks();
    inner(views, dir, decisions);
    const uint64_t t1 = Ticks();
    ts->hook_allocs += ThreadAllocs() - a0;
    ts->log.Add(SpanName::kFilterBatchHook, ts->run_parent, ts->burst_id, t0, t1);
  });
}

// --- Stats snapshots -----------------------------------------------------------

struct Snapshot {
  filter::FilterStats fs;
  filter::FlowTableStats flows;
  std::vector<uint64_t> shard_lookups;
  net::StackStats ss;
  nucleus::ProxyStats proxy;
  uint64_t frames = 0;
};

Snapshot Take(filter::PacketFilter& f, const net::ProtocolStack& stack,
              const nucleus::ProxyStats* proxy, uint64_t frames) {
  Snapshot s;
  s.fs = f.stats();
  for (size_t i = 0; i < f.shard_count(); ++i) {
    const filter::FlowTableStats& t = f.flows(i).stats();
    s.flows.inserts += t.inserts;
    s.flows.evictions += t.evictions;
    s.shard_lookups.push_back(t.hits + t.misses);
  }
  s.ss = stack.stats();
  if (proxy != nullptr) {
    s.proxy = *proxy;
  }
  s.frames = frames;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Classifier-side SFI figures over the live generation (whose VM stats
// start at its install) against FilterStats deltas since that install.
struct SfiFigures {
  double insns_per_classify = 0;
  double checks_per_classify = 0;
  double static_proof_share = 0;
  double proc_insns_per_invocation = 0;
  double jit_share = 0;
  uint64_t classifier_runs = 0;
};

SfiFigures SfiSince(filter::PacketFilter& f, const filter::FilterStats& at_install) {
  const filter::FilterStats now = f.stats();
  const sfi::VmStats vm = f.vm_stats();
  SfiFigures out;
  // Every evaluation that is not a current-epoch flow hit runs the
  // classifier exactly once (stale-epoch re-evaluations included).
  out.classifier_runs =
      (now.evaluated - at_install.evaluated) - (now.flow_hits - at_install.flow_hits);
  const double runs = static_cast<double>(out.classifier_runs);
  out.insns_per_classify = Ratio(static_cast<double>(vm.instructions), runs);
  out.checks_per_classify = Ratio(static_cast<double>(vm.bounds_checks), runs);
  out.static_proof_share =
      Ratio(static_cast<double>(vm.static_proofs), static_cast<double>(vm.bounds_checks));
  out.jit_share = Ratio(static_cast<double>(vm.jit_runs), runs);
  uint64_t proc_insns = 0;
  uint64_t proc_runs = 0;
  for (size_t s = 0; s < f.shard_count(); ++s) {
    for (const filter::PacketFilter::ProcChain& chain : f.chains(s)) {
      for (const auto& proc : chain) {
        proc_insns += proc->vm.stats().instructions;
        proc_runs += proc->invocations;
      }
    }
  }
  out.proc_insns_per_invocation =
      Ratio(static_cast<double>(proc_insns), static_cast<double>(proc_runs));
  return out;
}

const char* BackendName(sfi::VmBackend backend) {
  switch (backend) {
    case sfi::VmBackend::kJit: return "jit";
    case sfi::VmBackend::kThreaded: return "threaded";
    case sfi::VmBackend::kAuto: return "auto";
  }
  return "?";
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- Control plane -----------------------------------------------------------

struct ReplayStages {
  double parse = 0, compile = 0, verify = 0, analyze = 0, jit = 0, certify = 0, validate = 0,
         install = 0, load = 0;
};

double MsBetween(uint64_t t0, uint64_t t1) { return static_cast<double>(t1 - t0) / 1e6; }

// Replays LoadCertified's pipeline stage by stage over `text` through the
// public entry points, then measures LoadCertified itself on `side`. The
// classifier and every procedure program are compiled, verified (analysis
// off, then on: analyze is the difference), JIT-compiled (paid lazily by the
// data plane's first run after a reload, so not part of LoadCertified),
// certified and validated. install = LoadCertified - the stages it runs.
Result<ReplayStages> ReplayOnce(const std::string& text, Crypto& crypto,
                                filter::PacketFilter& side, uint32_t version, SpanLog* log,
                                uint64_t id) {
  ReplayStages st;
  const uint64_t t0 = Ticks();
  PARA_ASSIGN_OR_RETURN(filter::RuleSet rules, filter::ParseRules(text));
  const uint64_t t1 = Ticks();
  PARA_ASSIGN_OR_RETURN(filter::CompiledFilter compiled, filter::CompileRules(rules, {}));
  std::vector<sfi::Program> programs{compiled.program};
  for (const auto& chain : compiled.chains) {
    for (const filter::RuleProcSpec& spec : chain) {
      PARA_ASSIGN_OR_RETURN(sfi::Program p, filter::BuiltIns().Generate(spec));
      programs.push_back(std::move(p));
    }
  }
  const uint64_t t2 = Ticks();
  for (const sfi::Program& p : programs) {
    PARA_ASSIGN_OR_RETURN(sfi::VerifiedProgram v, sfi::Verify(p, {.analyze = false}));
    (void)v;
  }
  const uint64_t t3 = Ticks();
  std::vector<sfi::VerifiedProgram> verified;
  for (const sfi::Program& p : programs) {
    PARA_ASSIGN_OR_RETURN(sfi::VerifiedProgram v, sfi::Verify(p));
    verified.push_back(std::move(v));
  }
  const uint64_t t4 = Ticks();
  if (sfi::JitAvailable()) {
    for (const sfi::VerifiedProgram& v : verified) {
      PARA_ASSIGN_OR_RETURN(auto jit, sfi::JitCompile(v, sfi::ExecMode::kTrusted));
      (void)jit;
    }
  }
  const uint64_t t5 = Ticks();
  std::vector<nucleus::Certificate> certs;
  for (const sfi::VerifiedProgram& v : verified) {
    PARA_ASSIGN_OR_RETURN(nucleus::Certificate cert,
                          crypto.signer->Certify("ib-replay", version, v.identity(),
                                                 nucleus::kCertKernelEligible, version));
    certs.push_back(std::move(cert));
  }
  const uint64_t t6 = Ticks();
  for (size_t i = 0; i < verified.size(); ++i) {
    PARA_RETURN_IF_ERROR(crypto.service->ValidateForKernel(certs[i], verified[i].identity()));
  }
  const uint64_t t7 = Ticks();
  PARA_RETURN_IF_ERROR(side.LoadCertified(rules, *crypto.signer, *crypto.service));
  const uint64_t t8 = Ticks();

  st.parse = TicksToNs(t1 - t0) / 1e6;
  st.compile = TicksToNs(t2 - t1) / 1e6;
  st.verify = TicksToNs(t3 - t2) / 1e6;
  st.analyze = TicksToNs(t4 - t3) / 1e6 - st.verify;
  st.jit = TicksToNs(t5 - t4) / 1e6;
  st.certify = TicksToNs(t6 - t5) / 1e6;
  st.validate = TicksToNs(t7 - t6) / 1e6;
  st.load = TicksToNs(t8 - t7) / 1e6;
  st.install = st.load - (st.compile + st.verify + st.analyze + st.certify + st.validate);
  if (log != nullptr) {
    log->Add(SpanName::kCtlParse, SpanName::kCtlReplay, id, t0, t1);
    log->Add(SpanName::kCtlCompile, SpanName::kCtlReplay, id, t1, t2);
    log->Add(SpanName::kCtlVerify, SpanName::kCtlReplay, id, t2, t3);
    log->Add(SpanName::kCtlAnalyze, SpanName::kCtlReplay, id, t3, t4);
    log->Add(SpanName::kCtlJit, SpanName::kCtlReplay, id, t4, t5);
    log->Add(SpanName::kCtlCertify, SpanName::kCtlReplay, id, t5, t6);
    log->Add(SpanName::kCtlValidate, SpanName::kCtlReplay, id, t6, t7);
    log->Add(SpanName::kCtlLoadCertified, SpanName::kCtlReplay, id, t7, t8);
    log->Add(SpanName::kCtlReplay, SpanName::kNone, id, t0, t8);
  }
  return st;
}

// Median stage figures over kReplays replays of `text` into a side filter.
Result<ReplayStages> Replay(const WorkloadSpec& spec, const std::string& text, Crypto& crypto,
                            SpanLog* log, size_t replays = kReplays) {
  PARA_ASSIGN_OR_RETURN(auto side, filter::PacketFilter::Create(MakeFilterConfig(spec)));
  std::vector<ReplayStages> all;
  for (size_t i = 0; i < replays; ++i) {
    PARA_ASSIGN_OR_RETURN(ReplayStages st, ReplayOnce(text, crypto, *side,
                                                      static_cast<uint32_t>(1'000'000 + i), log,
                                                      1'000'000 + i));
    all.push_back(st);
  }
  auto med = [&all](double ReplayStages::*field) {
    std::vector<double> v;
    for (const ReplayStages& st : all) {
      v.push_back(st.*field);
    }
    return Median(v);
  };
  ReplayStages out;
  out.parse = med(&ReplayStages::parse);
  out.compile = med(&ReplayStages::compile);
  out.verify = med(&ReplayStages::verify);
  out.analyze = med(&ReplayStages::analyze);
  out.jit = med(&ReplayStages::jit);
  out.certify = med(&ReplayStages::certify);
  out.validate = med(&ReplayStages::validate);
  out.install = med(&ReplayStages::install);
  out.load = med(&ReplayStages::load);
  return out;
}

void AddReplayMetrics(RunResult& r, const ReplayStages& st) {
  r.Add("ctl.parse_ms", st.parse, "ms");
  r.Add("ctl.compile_ms", st.compile, "ms");
  r.Add("ctl.verify_ms", st.verify, "ms");
  r.Add("ctl.analyze_ms", st.analyze, "ms");
  r.Add("ctl.jit_ms", st.jit, "ms");
  r.Add("ctl.certify_ms", st.certify, "ms");
  r.Add("ctl.validate_ms", st.validate, "ms");
  r.Add("ctl.install_ms", st.install, "ms");
}

// Rule text -> installed, off the data path: fresh variants of the
// workload's rule text reloaded into an idle filter through the workload's
// own load path, at reference speed (the slowdown is re-sampled every 25
// reloads). imix_reload measures the same thing under load instead.
Result<std::vector<double>> OffPathReloads(const WorkloadSpec& spec, const Policy& policy,
                                           uint64_t seed, Crypto& crypto, SpeedRef& ref) {
  PARA_ASSIGN_OR_RETURN(auto side, filter::PacketFilter::Create(MakeFilterConfig(spec)));
  std::vector<double> ms;
  double slow = 1.0;
  for (size_t k = 1; k <= kReloadSamples; ++k) {
    if (k % 25 == 1) {
      slow = ref.Sample();
    }
    const std::string text = MakeRuleText(spec, policy, seed, k);
    const uint64_t t0 = NowNs();
    PARA_ASSIGN_OR_RETURN(filter::RuleSet rules, filter::ParseRules(text));
    PARA_RETURN_IF_ERROR(LoadRules(*side, rules, spec.certified, crypto));
    ms.push_back(MsBetween(t0, NowNs()) / slow);
  }
  return ms;
}

// imix_reload's control thread: a fresh rule text every 50 ms on a fixed
// schedule, parsed and installed with LoadCertified while the data plane
// runs.
struct Reloader {
  const WorkloadSpec* spec = nullptr;
  const Policy* policy = nullptr;
  const std::vector<Conversation>* conversations = nullptr;
  uint64_t seed = 0;
  filter::PacketFilter* filter = nullptr;
  Crypto* crypto = nullptr;
  SpanLog* log = nullptr;  // traced runs only (owned by this thread)
  std::atomic<bool> stop{false};

  std::vector<double> reload_ms;
  double max_late_ms = 0;
  uint64_t late = 0;
  size_t retired_max = 0;
  uint64_t disagreements = 0;
  uint64_t load_errors = 0;
  uint64_t variant = 0;

  void Run(uint64_t start_ns) {
    // Reload times are scaled by this thread's own core: the slowdown is
    // sampled while waiting for each reload's slot.
    SpeedRef speed;
    std::string text = MakeRuleText(*spec, *policy, seed, ++variant);
    for (uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
      const uint64_t target = start_ns + k * kReloadPeriodNs;
      const double slow = speed.Sample();
      while (NowNs() < target && !stop.load(std::memory_order_relaxed)) {
        const uint64_t left = target - NowNs();
        std::this_thread::sleep_for(std::chrono::nanoseconds(std::min<uint64_t>(left, 2'000'000)));
      }
      if (stop.load(std::memory_order_relaxed)) {
        break;
      }
      const uint64_t t0 = NowNs();
      const double late_ms = MsBetween(target, std::max(target, t0));
      max_late_ms = std::max(max_late_ms, late_ms);
      late += late_ms > 1.0 ? 1 : 0;
      const uint64_t k0 = Ticks();
      Result<filter::RuleSet> rules = filter::ParseRules(text);
      const uint64_t k1 = Ticks();
      if (!rules.ok()) {
        ++load_errors;
        continue;
      }
      const Status loaded = filter->LoadCertified(*rules, *crypto->signer, *crypto->service);
      const uint64_t k2 = Ticks();
      const uint64_t t1 = NowNs();
      if (!loaded.ok()) {
        ++load_errors;
      }
      reload_ms.push_back(MsBetween(t0, t1) / slow);
      retired_max = std::max(retired_max, filter->retired_generations());
      if (log != nullptr) {
        log->Add(SpanName::kCtlParse, SpanName::kCtlReload, k, k0, k1);
        log->Add(SpanName::kCtlLoadCertified, SpanName::kCtlReload, k, k1, k2);
        log->Add(SpanName::kCtlReload, SpanName::kNone, k, k0, k2);
      }
      // Off the clock: the fresh set must keep every conversation's verdict
      // (a generator bug would otherwise read as a data-plane failure).
      disagreements += RulesAgree(*rules, *conversations) ? 0 : 1;
      text = MakeRuleText(*spec, *policy, seed, ++variant);
    }
  }
};

// --- Data-plane workloads (flowhit_64, churn_64, imix_reload) ---------------

struct DataPlane {
  std::unique_ptr<Crypto> crypto;
  Policy policy;
  std::string rule_text;
  filter::RuleSet rules;
  std::unique_ptr<filter::PacketFilter> filter;
  Traffic traffic;
  std::unique_ptr<net::ProtocolStack> stack;
  std::unique_ptr<Checker> checker;
  filter::FilterStats at_install;
};

Result<std::unique_ptr<DataPlane>> SetUpDataPlane(const WorkloadSpec& spec, uint64_t seed) {
  auto dp = std::make_unique<DataPlane>();
  dp->crypto = MakeCrypto();
  PARA_ASSIGN_OR_RETURN(dp->filter, filter::PacketFilter::Create(MakeFilterConfig(spec)));
  filter::PacketFilter* f = dp->filter.get();
  dp->policy = MakePolicy(spec, seed);
  dp->rule_text = MakeRuleText(spec, dp->policy, seed, 0);
  PARA_ASSIGN_OR_RETURN(dp->rules, filter::ParseRules(dp->rule_text));
  PARA_ASSIGN_OR_RETURN(dp->traffic,
                        BuildTraffic(spec, dp->policy, dp->rules, seed,
                                     [f](const net::PacketView& v) { return f->SteerShard(v); }));
  PARA_RETURN_IF_ERROR(LoadRules(*f, dp->rules, spec.certified, *dp->crypto));
  dp->at_install = f->stats();
  // The wire behind the host stack: egress frames are dropped.
  dp->stack = std::make_unique<net::ProtocolStack>(
      net::StackConfig{kHostMac, kHostIp}, [](std::span<const uint8_t>) { return OkStatus(); });
  InstallHooks(*dp->stack, *f, nullptr);
  dp->checker = std::make_unique<Checker>(dp->traffic);
  BindHandlers(*dp->stack, *dp->checker, nullptr);
  // Host-opened conversations: one egress datagram each establishes the
  // flow the timed ingress replies then hit in the reverse direction.
  const std::vector<uint8_t> opening(64 - kFrameOverhead, 0x5A);
  for (const Conversation& c : dp->traffic.conversations) {
    if (!c.host_initiated) {
      continue;
    }
    dp->stack->AddNeighbor(c.remote_ip, kPeerMac);
    PARA_RETURN_IF_ERROR(dp->stack->SendDatagram(c.remote_ip, c.host_port, c.remote_port, opening));
  }
  return dp;
}

// Closed loop, untraced: the next burst is offered only when the previous
// one has returned. Returns frames offered.
// `scale` multiplies the recorded burst times (1 / slowdown when timing at
// reference speed).
uint64_t DriveUntraced(DataPlane& dp, size_t& cursor, uint64_t deadline, Histogram* hist,
                       double scale = 1.0) {
  const Traffic& t = dp.traffic;
  Checker& ck = *dp.checker;
  net::ProtocolStack& stack = *dp.stack;
  const size_t bursts = t.bursts();
  uint64_t frames = 0;
  for (;;) {
    const size_t b = cursor;
    cursor = cursor + 1 == bursts ? 0 : cursor + 1;
    const auto burst = t.Burst(b);
    ck.Begin(b);
    const uint64_t t0 = NowNs();
    stack.OnFrameBurst(burst);
    const uint64_t t1 = NowNs();
    ck.End();
    frames += burst.size();
    if (hist != nullptr) {
      hist->Record(static_cast<uint64_t>(static_cast<double>(t1 - t0) * scale));
    }
    if (t1 >= deadline) {
      return frames;
    }
  }
}

// Closed loop with spans: burst -> net.on_frame_burst -> {filter.batch_hook,
// app.socket_handler}; the hooks/handlers were swapped for recording wrappers.
uint64_t DriveTraced(DataPlane& dp, size_t& cursor, uint64_t deadline, Histogram& hist,
                     TraceState& ts) {
  const Traffic& t = dp.traffic;
  Checker& ck = *dp.checker;
  net::ProtocolStack& stack = *dp.stack;
  const size_t bursts = t.bursts();
  uint64_t frames = 0;
  for (;;) {
    const size_t b = cursor;
    cursor = cursor + 1 == bursts ? 0 : cursor + 1;
    const auto burst = t.Burst(b);
    const uint64_t id = ++ts.burst_id;
    const uint64_t tb0 = Ticks();
    ck.Begin(b);
    const uint64_t hook_a = ts.hook_allocs;
    const uint64_t handler_a = ts.handler_allocs;
    const uint64_t a0 = ThreadAllocs();
    const uint64_t tn0 = Ticks();
    stack.OnFrameBurst(burst);
    const uint64_t tn1 = Ticks();
    const uint64_t a1 = ThreadAllocs();
    ck.End();
    const uint64_t tb1 = Ticks();
    ts.net_allocs += (a1 - a0) - (ts.hook_allocs - hook_a) - (ts.handler_allocs - handler_a);
    ts.log.Add(SpanName::kNetOnFrameBurst, SpanName::kBurst, id, tn0, tn1);
    ts.log.Add(SpanName::kBurst, SpanName::kNone, id, tb0, tb1);
    hist.Record(static_cast<uint64_t>(TicksToNs(tn1 - tn0)));
    frames += burst.size();
    if (NowNs() >= deadline) {
      return frames;
    }
  }
}

// Counter figures are deltas between the snapshots; span figures divide by
// the frames driven while spans were recorded.
void AddNetAndFilterLayers(RunResult& r, const Snapshot& a, const Snapshot& b,
                           const TraceState& ts, SpanName hook_span, bool reloads_counted,
                           uint64_t span_frames) {
  const double frames = static_cast<double>(b.frames - a.frames);
  const double traced = static_cast<double>(span_frames);
  const double frames_in = static_cast<double>(b.ss.frames_in - a.ss.frames_in);
  const double evaluated = static_cast<double>(b.fs.evaluated - a.fs.evaluated);
  const double hits = static_cast<double>(b.fs.flow_hits - a.fs.flow_hits);
  // e9_user_rx cannot isolate the stack from the driver, event and proxy
  // work around it: its "net" self time is the whole cycle minus the filter
  // and the socket handler.
  const double net_self_ns =
      hook_span == SpanName::kFilterHook
          ? ts.log.SelfNs(SpanName::kE9Inject) + ts.log.SelfNs(SpanName::kE9Run)
          : ts.log.SelfNs(SpanName::kNetOnFrameBurst);
  r.Add("net.self_ns_per_frame", Ratio(net_self_ns, traced), "ns");
  r.Add("net.allocs_per_frame", Ratio(static_cast<double>(ts.net_allocs), traced), "count");
  r.Add("net.delivered_share",
        Ratio(static_cast<double>(b.ss.datagrams_in - a.ss.datagrams_in), frames_in), "ratio");
  r.Add("net.filtered_share",
        Ratio(static_cast<double>(b.ss.drops_filtered - a.ss.drops_filtered), frames_in),
        "ratio");
  r.Add("filter.ns_per_frame", Ratio(ts.log.TotalNs(hook_span), traced), "ns");
  r.Add("filter.allocs_per_frame", Ratio(static_cast<double>(ts.hook_allocs), traced), "count");
  r.Add("filter.flow_hit_ratio", Ratio(hits, evaluated), "ratio");
  r.Add("filter.reverse_hit_share",
        Ratio(static_cast<double>(b.fs.flow_hits_reverse - a.fs.flow_hits_reverse), hits),
        "ratio");
  r.Add("filter.evictions_per_kframe",
        Ratio(1000.0 * static_cast<double>(b.flows.evictions - a.flows.evictions), frames),
        "count");
  r.Add("filter.inserts_per_kframe",
        Ratio(1000.0 * static_cast<double>(b.flows.inserts - a.flows.inserts), frames), "count");
  r.Add("filter.procs_per_frame",
        Ratio(static_cast<double>(b.fs.proc_invocations - a.fs.proc_invocations), evaluated),
        "count");
  r.Add("filter.reevaluations_per_reload",
        reloads_counted ? Ratio(static_cast<double>(b.fs.flow_reevaluations -
                                                    a.fs.flow_reevaluations),
                                static_cast<double>(b.fs.reloads - a.fs.reloads))
                        : 0.0,
        "count");
  double max_lookups = 0;
  double sum_lookups = 0;
  for (size_t s = 0; s < b.shard_lookups.size(); ++s) {
    const double l = static_cast<double>(b.shard_lookups[s] - a.shard_lookups[s]);
    max_lookups = std::max(max_lookups, l);
    sum_lookups += l;
  }
  r.Add("filter.shard_imbalance",
        Ratio(max_lookups, sum_lookups / static_cast<double>(b.shard_lookups.size())), "ratio");
}

void AddSfiLayers(RunResult& r, const SfiFigures& s) {
  r.Add("sfi.insns_per_classify", s.insns_per_classify, "count");
  r.Add("sfi.checks_per_classify", s.checks_per_classify, "count");
  r.Add("sfi.static_proof_share", s.static_proof_share, "ratio");
  r.Add("sfi.proc_insns_per_invocation", s.proc_insns_per_invocation, "count");
  r.Add("sfi.jit_share", s.jit_share, "ratio");
}

// Failure accounting shared by every workload: oracle failures, filter
// faults and device drops are all failed frames, never hidden.
void Account(RunResult& r, uint64_t oracle_failed, uint64_t faults, uint64_t rx_dropped,
             const SfiFigures& sfi_fig) {
  r.failed += oracle_failed + faults + rx_dropped;
  if (oracle_failed > 0) {
    r.Fail(std::to_string(oracle_failed) + " frames disagreed with the oracle");
  }
  if (faults > 0) {
    r.Fail("filter.faults = " + std::to_string(faults));
  }
  if (rx_dropped > 0) {
    r.Fail("hw.rx_dropped = " + std::to_string(rx_dropped));
  }
  if (sfi::JitAvailable() && sfi_fig.classifier_runs > 0 && sfi_fig.jit_share < 1.0) {
    r.Fail("JIT available but sfi.jit_share < 1 (silent fallback)");
  }
}

uint64_t Faults(const filter::FilterStats& s) {
  return s.vm_faults + s.proc_faults + s.descriptor_faults;
}

// The timed phase of an untraced run, at reference-machine speed: it runs
// in slices, each preceded by a SpeedRef sample; `drive(deadline, scale)`
// records burst times scaled by 1 / slowdown, and seconds are summed the
// same way.
struct RefTimed {
  uint64_t frames = 0;
  double ref_seconds = 0;
  double raw_seconds = 0;
};

template <typename Drive>
RefTimed DriveAtRefSpeed(uint64_t end, SpeedRef& ref, Drive&& drive) {
  RefTimed out;
  for (uint64_t now = NowNs(); now < end; now = NowNs()) {
    const double slow = ref.Sample();
    const uint64_t t0 = NowNs();
    out.frames += drive(std::min(end, t0 + kSliceNs), 1.0 / slow);
    const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    out.raw_seconds += seconds;
    out.ref_seconds += seconds / slow;
  }
  return out;
}

// Set-up times: raw seconds into the run record; seconds at reference speed
// (divided by the slowdown sampled just before each set-up) into `setup_s`.
struct SetupTimes {
  std::vector<double> raw;
  std::vector<double> setup_s;
  void Add(double seconds, double slowdown) {
    raw.push_back(seconds);
    setup_s.push_back(seconds / slowdown);
  }
  void Record(RunResult& r) const {
    std::string list = "[";
    for (size_t i = 0; i < raw.size(); ++i) {
      list += i == 0 ? "" : ",";
      list += std::to_string(raw[i]);
    }
    r.Info("setup_s_raw", list + "]");
  }
};

// The end-to-end metrics of an untraced run, at reference-machine speed.
// Throughput is frames offered, and payload delivered, per timed second.
void AddEndToEnd(RunResult& r, const SetupTimes& setups, const RefTimed& timed,
                 uint64_t payload_bytes, const Histogram& hist,
                 const std::vector<double>& reload_ms, const SpeedRef& ref) {
  r.Info("slowdown_median", std::to_string(ref.MedianSlowdown()));
  r.Info("slowdown_samples", std::to_string(ref.samples()));
  r.Info("raw_rx_mpps",
         std::to_string(static_cast<double>(timed.frames) / timed.raw_seconds / 1e6));
  r.Info("burst_samples", std::to_string(hist.count()));
  r.Info("reload_samples", std::to_string(reload_ms.size()));
  // The samples themselves, so a multi-process run can pool them: one
  // process's p95 rests on a handful of samples beyond it.
  std::string samples = "[";
  for (size_t i = 0; i < reload_ms.size(); ++i) {
    samples += i == 0 ? "" : ",";
    samples += std::to_string(reload_ms[i]);
  }
  r.Info("reload_ms", samples + "]");
  r.Add("setup_s", Median(setups.setup_s), "s");
  r.Add("rx_mpps", static_cast<double>(timed.frames) / timed.ref_seconds / 1e6, "Mpkt/s");
  r.Add("goodput_mbps", static_cast<double>(payload_bytes) * 8 / timed.ref_seconds / 1e6,
        "Mbit/s");
  r.Add("burst_p50_us", hist.Quantile(0.50) / 1e3, "us");
  r.Add("burst_p99_us", hist.Quantile(0.99) / 1e3, "us");
  r.Add("reload_p50_ms", Percentile(reload_ms, 0.50), "ms");
  r.Add("reload_p95_ms", Percentile(reload_ms, 0.95), "ms");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
}

void RunDataPlane(const RunOptions& o, SpeedRef& ref, RunResult& r) {
  const WorkloadSpec& spec = SpecFor(o.workload);
  const bool imix = o.workload == Workload::kImixReload;

  std::unique_ptr<DataPlane> dp;
  SetupTimes setups;
  for (size_t i = 0; i < kSetups; ++i) {
    dp.reset();
    const double slow = ref.Sample();
    const uint64_t t0 = NowNs();
    Result<std::unique_ptr<DataPlane>> made = SetUpDataPlane(spec, o.seed);
    setups.Add(static_cast<double>(NowNs() - t0) / 1e9, slow);
    if (!made.ok()) {
      r.Fail("set-up failed: " + std::string(made.status().message()));
      return;
    }
    dp = std::move(made).value();
  }
  setups.Record(r);
  filter::PacketFilter& f = *dp->filter;
  r.Info("exec_backend", Quote(BackendName(f.exec_backend())));
  r.Info("frame_digest", Quote(std::to_string(dp->traffic.Digest())));
  r.Info("conversations_seen", std::to_string(dp->traffic.conversations.size()));
  r.Info("ring_frames", std::to_string(dp->traffic.frames.size()));
  r.Info("oracle_delivered_share",
         std::to_string(Ratio(static_cast<double>(dp->traffic.deliver_frames),
                              static_cast<double>(dp->traffic.frames.size()))));

  uint64_t frames = 0;
  size_t cursor = 0;
  // Warm-up: one pass over the ring (flow table, JIT code, caches).
  frames += DriveUntraced(*dp, cursor, 0, nullptr);
  while (cursor != 0) {
    frames += DriveUntraced(*dp, cursor, 0, nullptr);
  }

  Reloader reloader;
  SpanLog ctl_log(kKeptSpans / 4, 1);
  std::thread control;
  if (imix) {
    reloader.spec = &spec;
    reloader.policy = &dp->policy;
    reloader.conversations = &dp->traffic.conversations;
    reloader.seed = o.seed;
    reloader.filter = &f;
    reloader.crypto = dp->crypto.get();
    reloader.log = o.trace ? &ctl_log : nullptr;
  }

  Histogram hist;
  Histogram traced_hist;
  const Snapshot s0 = Take(f, *dp->stack, nullptr, frames);
  const uint64_t bytes0 = dp->checker->bytes;
  const uint64_t start = NowNs();
  if (imix) {
    control = std::thread([&reloader, start] { reloader.Run(start); });
  }
  const uint64_t end = start + static_cast<uint64_t>(o.seconds * 1e9);
  TraceState ts;
  RefTimed timed;
  uint64_t timed_frames = 0;
  uint64_t traced_frames = 0;
  if (!o.trace) {
    timed = DriveAtRefSpeed(end, ref, [&](uint64_t deadline, double scale) {
      return DriveUntraced(*dp, cursor, deadline, &hist, scale);
    });
    timed_frames = timed.frames;
  } else {
    // Untraced and traced slices alternate, so the machine's drift affects
    // both halves of trace.overhead_share alike.
    for (uint64_t now = start; now < end; now = NowNs()) {
      InstallHooks(*dp->stack, f, nullptr);
      BindHandlers(*dp->stack, *dp->checker, nullptr);
      timed_frames += DriveUntraced(*dp, cursor, std::min(end, now + kSliceNs), &hist);
      InstallHooks(*dp->stack, f, &ts);
      BindHandlers(*dp->stack, *dp->checker, &ts);
      traced_frames +=
          DriveTraced(*dp, cursor, std::min(end, NowNs() + kSliceNs), traced_hist, ts);
    }
  }
  const uint64_t timed_bytes = dp->checker->bytes - bytes0;
  frames += timed_frames + traced_frames;
  if (imix) {
    reloader.stop.store(true);
    control.join();
  }
  const Snapshot s1 = Take(f, *dp->stack, nullptr, frames);

  // Classifier/SFI figures. imix_reload replaced the generation mid-run, so
  // it measures them over one more reload and one ring pass on this thread.
  filter::FilterStats since = dp->at_install;
  if (imix) {
    Result<filter::RuleSet> last = filter::ParseRules(MakeRuleText(spec, dp->policy, o.seed, 0));
    PARA_CHECK(last.ok());
    PARA_CHECK(f.LoadCertified(*last, *dp->crypto->signer, *dp->crypto->service).ok());
    since = f.stats();
    do {
      frames += DriveUntraced(*dp, cursor, 0, nullptr);
    } while (cursor != 0);
  }
  const SfiFigures sfi_fig = SfiSince(f, since);
  const filter::FilterStats final_stats = f.stats();
  r.attempted = frames;
  Account(r, dp->checker->failed, Faults(final_stats), 0, sfi_fig);
  if (imix) {
    if (reloader.load_errors > 0) {
      r.Fail(std::to_string(reloader.load_errors) + " reloads failed");
    }
    if (reloader.disagreements > 0) {
      r.Fail("a fresh rule set changed an always-allowed verdict");
    }
    r.Info("reloads", std::to_string(reloader.reload_ms.size()));
    r.Info("reload_late_count", std::to_string(reloader.late));
    r.Info("reload_max_late_ms", std::to_string(reloader.max_late_ms));
  }
  r.Info("classifier_share",
         std::to_string(Ratio(static_cast<double>(final_stats.evaluated - final_stats.flow_hits),
                              static_cast<double>(final_stats.evaluated))));
  if (dp->checker->delivered == 0) {
    r.Fail("nothing was delivered");
  }

  if (!o.trace) {
    std::vector<double> reload_ms;
    if (imix) {
      reload_ms = reloader.reload_ms;
    } else {
      Result<std::vector<double>> off =
          OffPathReloads(spec, dp->policy, o.seed, *dp->crypto, ref);
      if (!off.ok()) {
        r.Fail("off-path reload failed");
        return;
      }
      reload_ms = *off;
    }
    AddEndToEnd(r, setups, timed, timed_bytes, hist, reload_ms, ref);
    return;
  }

  // Traced run: per-layer metrics. Counter deltas cover every slice (the
  // control thread is quiet only at their edges); spans cover the traced ones.
  AddNetAndFilterLayers(r, s0, s1, ts, SpanName::kFilterBatchHook, imix, traced_frames);
  r.Add("filter.retired_generations_max", static_cast<double>(reloader.retired_max), "count");
  r.Add("filter.faults", static_cast<double>(Faults(final_stats)), "count");
  AddSfiLayers(r, sfi_fig);
  Result<ReplayStages> replay =
      Replay(spec, imix ? MakeRuleText(spec, dp->policy, o.seed, reloader.variant) : dp->rule_text,
             *dp->crypto, &ctl_log);
  if (!replay.ok()) {
    r.Fail("control-plane replay failed");
    return;
  }
  AddReplayMetrics(r, *replay);
  r.Add("nucleus.proxy_calls_per_frame", 0, "count");
  r.Add("nucleus.proxy_faults_per_frame", 0, "count");
  r.Add("nucleus.context_switches_per_frame", 0, "count");
  r.Add("nucleus.proxy_bytes_per_frame", 0, "B");
  r.Add("nucleus.placement_gap_ns_per_frame", 0, "ns");
  r.Add("hw.rx_dropped", 0, "count");
  const double p50_untraced = hist.Quantile(0.5);
  r.Add("trace.overhead_share", Ratio(traced_hist.Quantile(0.5) - p50_untraced, p50_untraced),
        "ratio");
  const double covered = ts.log.SelfNs(SpanName::kNetOnFrameBurst) +
                         ts.log.SelfNs(SpanName::kFilterBatchHook) +
                         ts.log.SelfNs(SpanName::kAppSocketHandler);
  const double child_share = Ratio(covered, ts.log.TotalNs(SpanName::kBurst));
  r.Add("trace.child_self_share", child_share, "ratio");
  if (child_share < 0.9 || child_share > 1.0 + 1e-9) {
    r.Fail("burst child spans do not account for the root span");
  }
  ts.log.Merge(ctl_log);
  if (!o.trace_path.empty() && !ts.log.WriteChromeTrace(o.trace_path)) {
    r.Fail("could not write " + o.trace_path);
  }
}

// --- e9_user_rx: the stack in a user domain behind the fault-based proxy -----

struct E9Bed {
  para::hw::Machine machine;
  para::hw::NetworkDevice* device = nullptr;
  std::unique_ptr<nucleus::Nucleus> nucleus;
  std::unique_ptr<para::components::NetDriver> driver;
  std::unique_ptr<filter::PacketFilter> filter;
  std::unique_ptr<para::components::StackComponent> stack;
  filter::FilterStats at_install;
};

Result<std::unique_ptr<E9Bed>> MakeE9Bed(const WorkloadSpec& spec, Crypto& crypto,
                                         const filter::RuleSet& rules, bool user_placed) {
  auto bed = std::make_unique<E9Bed>();
  bed->device =
      bed->machine.AddDevice(std::make_unique<para::hw::NetworkDevice>("n0", 4, kHostMac));
  nucleus::Nucleus::Config config;
  config.physical_pages = 1024;
  config.authority_key = crypto.authority->public_key();
  bed->nucleus = std::make_unique<nucleus::Nucleus>(&bed->machine, config);
  PARA_RETURN_IF_ERROR(bed->nucleus->Boot());
  nucleus::Context* kernel = bed->nucleus->kernel_context();
  PARA_ASSIGN_OR_RETURN(bed->driver,
                        para::components::NetDriver::Create(&bed->nucleus->vmem(),
                                                            &bed->nucleus->events(),
                                                            bed->device, kernel));
  PARA_RETURN_IF_ERROR(bed->nucleus->directory().Register("/shared/net0", bed->driver.get(),
                                                          kernel));
  nucleus::Context* home = user_placed ? bed->nucleus->CreateUserContext("app") : kernel;
  PARA_ASSIGN_OR_RETURN(bed->filter, filter::PacketFilter::Create(MakeFilterConfig(spec)));
  PARA_RETURN_IF_ERROR(bed->filter->LoadCertified(rules, *crypto.signer, *crypto.service));
  bed->at_install = bed->filter->stats();
  PARA_ASSIGN_OR_RETURN(
      bed->stack,
      para::components::StackComponent::Create(
          {&bed->nucleus->vmem(), &bed->nucleus->events(), &bed->nucleus->directory()}, home,
          "/shared/net0", net::StackConfig{kHostMac, kHostIp}));
  if (bed->stack->bound_via_proxy() != user_placed) {
    return Status(para::ErrorCode::kInternal, "stack placement did not bind as intended");
  }
  return bed;
}

// One inject-to-idle cycle: the burst enters the device RX queue, then the
// machine advances and the scheduler runs the interrupt pop-ups (driver,
// then the stack's PumpRx through the proxy) until the stack has seen every
// frame.
void E9Cycle(E9Bed& bed, const Traffic& t, size_t b, Checker& ck, TraceState* ts) {
  const auto burst = t.Burst(b);
  const net::StackStats& ss = bed.stack->stack().stats();
  const uint64_t target = ss.frames_in + burst.size();
  ck.Begin(b);
  const uint64_t hook_a = ts != nullptr ? ts->hook_allocs : 0;
  const uint64_t handler_a = ts != nullptr ? ts->handler_allocs : 0;
  const uint64_t a0 = ThreadAllocs();
  const uint64_t t0 = ts != nullptr ? Ticks() : 0;
  // Interrupt handlers run as pop-up proto-threads, so most of the RX path
  // executes inside DeliverFrame; hook and handler spans name whichever
  // phase they ran in as their parent.
  if (ts != nullptr) {
    ts->run_parent = SpanName::kE9Inject;
  }
  for (const auto& frame : burst) {
    bed.device->DeliverFrame(para::hw::Frame(frame.begin(), frame.end()));
  }
  const uint64_t t1 = ts != nullptr ? Ticks() : 0;
  if (ts != nullptr) {
    ts->run_parent = SpanName::kE9Run;
  }
  for (int spin = 0; spin < 256 && ss.frames_in < target; ++spin) {
    bed.machine.Advance(20);
    bed.nucleus->scheduler().RunUntilIdle();
  }
  if (ts != nullptr) {
    const uint64_t t2 = Ticks();
    ts->net_allocs += (ThreadAllocs() - a0) - (ts->hook_allocs - hook_a) -
                      (ts->handler_allocs - handler_a);
    ts->log.Add(SpanName::kE9Inject, SpanName::kBurst, ts->burst_id, t0, t1);
    ts->log.Add(SpanName::kE9Run, SpanName::kBurst, ts->burst_id, t1, t2);
  }
  ck.End();
}

uint64_t DriveE9(E9Bed& bed, const Traffic& t, Checker& ck, size_t& cursor, uint64_t deadline,
                 Histogram* hist, TraceState* ts, double scale = 1.0) {
  uint64_t frames = 0;
  for (;;) {
    const size_t b = cursor;
    cursor = cursor + 1 == t.bursts() ? 0 : cursor + 1;
    const uint64_t t0 = NowNs();
    uint64_t tb0 = 0;
    if (ts != nullptr) {
      ++ts->burst_id;
      tb0 = Ticks();
    }
    E9Cycle(bed, t, b, ck, ts);
    if (ts != nullptr) {
      ts->log.Add(SpanName::kBurst, SpanName::kNone, ts->burst_id, tb0, Ticks());
    }
    const uint64_t t1 = NowNs();
    const size_t n = t.burst_start[b + 1] - t.burst_start[b];
    frames += n;
    if (hist != nullptr) {
      hist->Record(static_cast<uint64_t>(static_cast<double>(t1 - t0) * scale));
    }
    if (t1 >= deadline) {
      return frames;
    }
  }
}

void RunE9(const RunOptions& o, SpeedRef& ref, RunResult& r) {
  const WorkloadSpec& spec = SpecFor(Workload::kE9UserRx);
  struct Env {
    std::unique_ptr<Crypto> crypto;
    Policy policy;
    std::string rule_text;
    filter::RuleSet rules;
    Traffic traffic;
    std::unique_ptr<E9Bed> bed;
  };
  std::unique_ptr<Env> env;
  SetupTimes setups;
  for (size_t i = 0; i < kSetups; ++i) {
    env.reset();
    const double slow = ref.Sample();
    const uint64_t t0 = NowNs();
    env = std::make_unique<Env>();
    env->crypto = MakeCrypto();
    env->policy = MakePolicy(spec, o.seed);
    env->rule_text = MakeRuleText(spec, env->policy, o.seed, 0);
    Result<filter::RuleSet> rules = filter::ParseRules(env->rule_text);
    if (!rules.ok()) {
      r.Fail("rule text did not parse");
      return;
    }
    env->rules = *rules;
    // One RX queue: steering is the identity.
    Result<Traffic> traffic = BuildTraffic(spec, env->policy, env->rules, o.seed,
                                           [](const net::PacketView&) { return size_t{0}; });
    Result<std::unique_ptr<E9Bed>> bed =
        traffic.ok() ? MakeE9Bed(spec, *env->crypto, env->rules, /*user_placed=*/true)
                     : Result<std::unique_ptr<E9Bed>>(traffic.status());
    setups.Add(static_cast<double>(NowNs() - t0) / 1e9, slow);
    if (!bed.ok()) {
      r.Fail("set-up failed: " + std::string(bed.status().message()));
      return;
    }
    env->traffic = std::move(traffic).value();
    env->bed = std::move(bed).value();
  }
  setups.Record(r);
  E9Bed& bed = *env->bed;
  const Traffic& t = env->traffic;
  Checker ck(t);
  net::ProtocolStack& stack = bed.stack->stack();
  InstallHooks(stack, *bed.filter, nullptr);
  BindHandlers(stack, ck, nullptr);
  r.Info("exec_backend", Quote(BackendName(bed.filter->exec_backend())));
  r.Info("frame_digest", Quote(std::to_string(t.Digest())));
  r.Info("via_proxy", bed.stack->bound_via_proxy() ? "true" : "false");

  uint64_t frames = 0;
  size_t cursor = 0;
  do {
    frames += DriveE9(bed, t, ck, cursor, 0, nullptr, nullptr);
  } while (cursor != 0);

  if (!o.trace) {
    const uint64_t bytes0 = ck.bytes;
    Histogram hist;
    const RefTimed timed = DriveAtRefSpeed(
        NowNs() + static_cast<uint64_t>(o.seconds * 1e9), ref,
        [&](uint64_t deadline, double scale) {
          return DriveE9(bed, t, ck, cursor, deadline, &hist, nullptr, scale);
        });
    const uint64_t timed_bytes = ck.bytes - bytes0;
    r.attempted = frames + timed.frames;
    Account(r, ck.failed, Faults(bed.filter->stats()), bed.device->frames_dropped(),
            SfiSince(*bed.filter, bed.at_install));
    Result<std::vector<double>> reload_ms =
        OffPathReloads(spec, env->policy, o.seed, *env->crypto, ref);
    if (!reload_ms.ok()) {
      r.Fail("off-path reload failed");
      return;
    }
    AddEndToEnd(r, setups, timed, timed_bytes, hist, *reload_ms, ref);
    return;
  }

  // Traced run: untraced, traced and kernel-placed slices in rotation, so
  // the machine's drift affects all three alike. The kernel-placed twin
  // gives the placement gap.
  Result<std::unique_ptr<E9Bed>> kbed =
      MakeE9Bed(spec, *env->crypto, env->rules, /*user_placed=*/false);
  if (!kbed.ok()) {
    r.Fail("kernel-placed bed failed");
    return;
  }
  Checker kck(t);
  InstallHooks((*kbed)->stack->stack(), *(*kbed)->filter, nullptr);
  BindHandlers((*kbed)->stack->stack(), kck, nullptr);
  size_t kcursor = 0;
  uint64_t kframes = 0;
  do {
    kframes += DriveE9(**kbed, t, kck, kcursor, 0, nullptr, nullptr);
  } while (kcursor != 0);

  TraceState ts;
  ts.run_parent = SpanName::kE9Run;
  const nucleus::ProxyStats& proxy = bed.nucleus->proxies().stats();
  const Snapshot a = Take(*bed.filter, stack, &proxy, frames);
  Histogram hist;
  Histogram traced_hist;
  Histogram khist;
  uint64_t traced_frames = 0;
  const uint64_t end = NowNs() + static_cast<uint64_t>(o.seconds * 1e9);
  for (uint64_t now = NowNs(); now < end; now = NowNs()) {
    InstallHooks(stack, *bed.filter, nullptr);
    BindHandlers(stack, ck, nullptr);
    frames += DriveE9(bed, t, ck, cursor, std::min(end, now + kSliceNs), &hist, nullptr);
    InstallHooks(stack, *bed.filter, &ts);
    BindHandlers(stack, ck, &ts);
    const uint64_t n =
        DriveE9(bed, t, ck, cursor, std::min(end, NowNs() + kSliceNs), &traced_hist, &ts);
    traced_frames += n;
    frames += n;
    kframes += DriveE9(**kbed, t, kck, kcursor, std::min(end, NowNs() + kSliceNs), &khist,
                       nullptr);
  }
  const Snapshot b = Take(*bed.filter, stack, &proxy, frames);
  frames += kframes;

  r.attempted = frames;
  const SfiFigures sfi_fig = SfiSince(*bed.filter, bed.at_install);
  const SfiFigures kernel_sfi = SfiSince(*(*kbed)->filter, (*kbed)->at_install);
  Account(r, ck.failed + kck.failed, Faults(bed.filter->stats()) + Faults((*kbed)->filter->stats()),
          bed.device->frames_dropped() + (*kbed)->device->frames_dropped(), sfi_fig);
  if (sfi::JitAvailable() && kernel_sfi.classifier_runs > 0 && kernel_sfi.jit_share < 1.0) {
    r.Fail("JIT available but the kernel-placed filter fell back");
  }

  AddNetAndFilterLayers(r, a, b, ts, SpanName::kFilterHook, false, traced_frames);
  r.Add("filter.retired_generations_max", 0, "count");
  r.Add("filter.faults", static_cast<double>(Faults(bed.filter->stats())), "count");
  AddSfiLayers(r, sfi_fig);
  SpanLog ctl_log(kKeptSpans / 4, 1);
  Result<ReplayStages> replay = Replay(spec, env->rule_text, *env->crypto, &ctl_log);
  if (!replay.ok()) {
    r.Fail("control-plane replay failed");
    return;
  }
  AddReplayMetrics(r, *replay);
  const double tf = static_cast<double>(b.frames - a.frames);
  r.Add("nucleus.proxy_calls_per_frame",
        Ratio(static_cast<double>(b.proxy.calls - a.proxy.calls), tf), "count");
  r.Add("nucleus.proxy_faults_per_frame",
        Ratio(static_cast<double>(b.proxy.faults - a.proxy.faults), tf), "count");
  r.Add("nucleus.context_switches_per_frame",
        Ratio(static_cast<double>(b.proxy.context_switches - a.proxy.context_switches), tf),
        "count");
  r.Add("nucleus.proxy_bytes_per_frame",
        Ratio(static_cast<double>(b.proxy.payload_bytes - a.proxy.payload_bytes), tf), "B");
  r.Add("nucleus.placement_gap_ns_per_frame",
        (hist.Quantile(0.5) - khist.Quantile(0.5)) / static_cast<double>(spec.burst_frames),
        "ns");
  r.Add("hw.rx_dropped",
        static_cast<double>(bed.device->frames_dropped() + (*kbed)->device->frames_dropped()),
        "count");
  const double p50_untraced = hist.Quantile(0.5);
  r.Add("trace.overhead_share", Ratio(traced_hist.Quantile(0.5) - p50_untraced, p50_untraced),
        "ratio");
  const double covered = ts.log.SelfNs(SpanName::kE9Inject) + ts.log.SelfNs(SpanName::kE9Run) +
                         ts.log.SelfNs(SpanName::kFilterHook) +
                         ts.log.SelfNs(SpanName::kAppSocketHandler);
  const double child_share = Ratio(covered, ts.log.TotalNs(SpanName::kBurst));
  r.Add("trace.child_self_share", child_share, "ratio");
  if (child_share < 0.9 || child_share > 1.0 + 1e-9) {
    r.Fail("burst child spans do not account for the root span");
  }
  ts.log.Merge(ctl_log);
  if (!o.trace_path.empty() && !ts.log.WriteChromeTrace(o.trace_path)) {
    r.Fail("could not write " + o.trace_path);
  }
}

}  // namespace

RunResult RunWorkload(const RunOptions& options) {
  RunResult r;
  SpeedRef ref;
  if (options.workload == Workload::kE9UserRx) {
    RunE9(options, ref, r);
  } else {
    RunDataPlane(options, ref, r);
  }
  return r;
}

// --- Self-tests ----------------------------------------------------------------

namespace {

int Check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  return ok ? 0 : 1;
}

uint64_t DigestOf(Workload w, uint64_t seed) {
  const WorkloadSpec& spec = SpecFor(w);
  const Policy policy = MakePolicy(spec, seed);
  Result<filter::RuleSet> rules = filter::ParseRules(MakeRuleText(spec, policy, seed, 0));
  PARA_CHECK(rules.ok());
  Result<Traffic> t = BuildTraffic(spec, policy, *rules, seed, [](const net::PacketView& v) {
    return static_cast<size_t>(filter::SymmetricFlowHash(
        {v.src_ip, v.dst_ip, v.src_port, v.dst_port, v.proto}));
  });
  PARA_CHECK(t.ok());
  return t->Digest() ^ std::hash<std::string>{}(MakeRuleText(spec, policy, seed, 0));
}

// Drives one ring pass with the filter's verdicts inverted and returns the
// oracle's failure count — it must be (nearly) every frame.
uint64_t InvertedHookFailures(Workload w, uint64_t seed, uint64_t* frames) {
  Result<std::unique_ptr<DataPlane>> dp = SetUpDataPlane(SpecFor(w), seed);
  PARA_CHECK(dp.ok());
  DataPlane& d = **dp;
  d.stack->SetIngressBatchFilter([inner = d.filter->BatchHook()](
                                     std::span<const net::PacketView> views,
                                     net::FilterDirection dir,
                                     std::span<net::FilterDecision> decisions) {
    inner(views, dir, decisions);
    for (size_t i = 0; i < views.size(); ++i) {
      decisions[i].verdict = net::VerdictPasses(decisions[i].verdict)
                                 ? net::FilterVerdict::kDrop
                                 : net::FilterVerdict::kPass;
    }
  });
  size_t cursor = 0;
  *frames = 0;
  do {
    *frames += DriveUntraced(d, cursor, 0, nullptr);
  } while (cursor != 0);
  return d.checker->failed;
}

}  // namespace

int RunSelfTests() {
  int failures = 0;
  for (Workload w : {Workload::kFlowHit64, Workload::kChurn64, Workload::kImixReload,
                     Workload::kE9UserRx}) {
    const std::string name = WorkloadName(w);
    const uint64_t d1 = DigestOf(w, 7);
    const uint64_t d2 = DigestOf(w, 7);
    const uint64_t d3 = DigestOf(w, 8);
    failures += Check(d1 == d2, (name + ": same seed gives the same frame digest").c_str());
    failures += Check(d1 != d3, (name + ": another seed gives another digest").c_str());
  }

  uint64_t frames = 0;
  const uint64_t inverted = InvertedHookFailures(Workload::kChurn64, 3, &frames);
  std::printf("     inverted verdict hook: %llu of %llu frames failed\n",
              static_cast<unsigned long long>(inverted), static_cast<unsigned long long>(frames));
  failures += Check(inverted >= frames / 2, "oracle flags a deliberately inverted verdict hook");

  // Control-plane replay: the stages LoadCertified runs (compile, verify
  // with analysis, certify, validate) must account for its measured time.
  const WorkloadSpec& spec = SpecFor(Workload::kImixReload);
  const Policy policy = MakePolicy(spec, 5);
  const std::string text = MakeRuleText(spec, policy, 5, 0);
  std::unique_ptr<Crypto> crypto = MakeCrypto();
  Result<ReplayStages> st = Replay(spec, text, *crypto, nullptr, 9);
  PARA_CHECK(st.ok());
  const double staged = st->compile + st->verify + st->analyze + st->certify + st->validate;
  std::printf("     LoadCertified %.3f ms, replayed stages %.3f ms (install %.3f ms)\n", st->load,
              staged, st->install);
  failures += Check(std::abs(staged - st->load) <= 0.05 * st->load,
                    "replayed stage sum is within 5% of the measured LoadCertified");
  return failures;
}

}  // namespace ib
