// The in-nucleus SFI packet filter: a user-definable firewall that is itself
// a migratable kernel extension, the paper's central claim made concrete.
// Rules compile to sfi::Program bytecode (compiler.h — decision-tree
// dispatch by default), every program passes sfi::Verify before it can
// execute — which now *produces* the pre-decoded VerifiedProgram the VM
// dispatches — and the execution mode reproduces the two sides of
// experiment E7:
//   * kSandboxed — untrusted rule sets run with per-access bounds checks and
//     instruction metering (the SFI safety net);
//   * kTrusted  — after the compiled program is certified (nucleus/cert.h)
//     the same bytecode runs with no run-time checks.
// A bounded flow table (flow_table.h) adds stateful firewalling: passed
// flows are cached — reply traffic shares the entry via reverse-tuple
// matching — and skip rule evaluation. A hot rule-set reload bumps the
// epoch; flows admitted under an older epoch re-evaluate on their next
// packet (fail closed) unless FilterConfig::flow_keepalive_across_reloads
// opts into the old keep-alive semantics. With a virtual clock configured,
// idle flows expire.
//
// Rules may attach procedure chains (extension.h): each named procedure is
// its own SFI program, instantiated per rule at load time — sandboxed under
// Load, individually certified and trusted under LoadCertified — and run
// post-match on every packet the rule decides, including flow-table hits
// (a rate limiter keeps limiting an established flow). A blocking procedure
// turns the decision into a drop and aborts the rest of its chain; a
// faulting or fuel-exhausted procedure drops the packet (fail closed)
// without taking the filter down. reject verdicts and event-raising
// procedures raise nucleus::kTrapFilterVerdict events so monitors can
// subscribe.
//
// PacketFilter is an obj::Object exporting FilterType(), so filter chains
// are named instances in the directory like any other component.
#ifndef PARAMECIUM_SRC_FILTER_FILTER_H_
#define PARAMECIUM_SRC_FILTER_FILTER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/base/telemetry.h"
#include "src/base/vclock.h"
#include "src/filter/compiler.h"
#include "src/filter/extension.h"
#include "src/filter/flow_table.h"
#include "src/filter/rule.h"
#include "src/net/filter_hook.h"
#include "src/nucleus/cert.h"
#include "src/nucleus/event.h"
#include "src/obj/object.h"
#include "src/sfi/program_cache.h"
#include "src/sfi/vm.h"

namespace para::filter {

// Filter chain interface exported through the directory.
//   0 stats(index)  -> counter (see FilterStats order)
//   1 rule_count()  -> rules in the installed set
//   2 mode()        -> 0 sandboxed, 1 trusted
//   3 flow_count()  -> live flow-table entries
const obj::TypeInfo* FilterType();

// Detail word of a kTrapFilterVerdict event:
//   bits 0..3   verdict (net::FilterVerdict) as the event was raised
//   bit  4      direction (net::FilterDirection)
//   bits 5..15  raising procedure id (1-based flat ordinal across the
//               installed program's chains, in chain order; 0 = the event
//               came from the dispatch verdict itself, e.g. a reject)
//   bits 32..63 matched rule index
constexpr uint64_t EncodeFilterEvent(net::FilterVerdict verdict, net::FilterDirection dir,
                                     uint16_t proc, uint32_t rule) {
  return static_cast<uint64_t>(verdict) | (static_cast<uint64_t>(dir) << 4) |
         (static_cast<uint64_t>(proc) << 5) | (static_cast<uint64_t>(rule) << 32);
}
constexpr net::FilterVerdict FilterEventVerdict(uint64_t detail) {
  return static_cast<net::FilterVerdict>(detail & 0xF);
}
constexpr net::FilterDirection FilterEventDirection(uint64_t detail) {
  return static_cast<net::FilterDirection>((detail >> 4) & 0x1);
}
constexpr uint16_t FilterEventProc(uint64_t detail) {
  return static_cast<uint16_t>((detail >> 5) & 0x7FF);
}
constexpr uint32_t FilterEventRule(uint64_t detail) {
  return static_cast<uint32_t>(detail >> 32);
}

// Deprecated: the PR-5-era event encoding (verdict u8 | direction u8 |
// rule << 32), kept only so out-of-tree monitors keep compiling. The filter
// no longer raises this layout — migrate to EncodeFilterEvent and the
// FilterEvent* decode helpers, which also carry the procedure id.
constexpr uint64_t EncodeVerdictEvent(net::FilterVerdict verdict, net::FilterDirection dir,
                                      uint32_t rule) {
  return static_cast<uint64_t>(verdict) | (static_cast<uint64_t>(dir) << 8) |
         (static_cast<uint64_t>(rule) << 32);
}
constexpr net::FilterVerdict VerdictEventVerdict(uint64_t detail) {
  return static_cast<net::FilterVerdict>(detail & 0xFF);
}
constexpr net::FilterDirection VerdictEventDirection(uint64_t detail) {
  return static_cast<net::FilterDirection>((detail >> 8) & 0xFF);
}
constexpr uint32_t VerdictEventRule(uint64_t detail) {
  return static_cast<uint32_t>(detail >> 32);
}

struct FilterConfig {
  std::string name = "filter";
  // Data-plane shards (one per RX queue). Each shard owns a FlowTable
  // partition, a classifier Vm (sharing the one compiled/JITted program),
  // per-shard procedure-chain state, and its own stats — merged on read.
  // Packets steer by a symmetric 5-tuple hash (SymmetricFlowHash), so a
  // conversation and its reply always land on the same shard. Concurrent
  // Evaluate/EvaluateBatch callers must target disjoint shards — in the
  // intended deployment each worker owns one RX queue whose RSS hash agrees
  // with SteerShard, so a worker's burst maps entirely onto its own shard.
  // 0 = resolve from the PARA_FILTER_SHARDS environment variable (the CI
  // sharded leg sets it), defaulting to 1; an explicit value wins over the
  // environment. Must not exceed kMaxFilterShards.
  size_t shards = 0;
  // Total flow capacity, split evenly across shards.
  size_t flow_capacity = 1024;
  bool track_flows = true;
  // Reload semantics for established flows. By default a flow-table hit
  // whose entry was admitted under an older rule-set generation is
  // re-evaluated against the installed rules (fail closed: tightening the
  // rules takes effect for established conversations too). Re-evaluation
  // always judges the conversation's *forward* orientation — a reply-
  // direction packet re-decides via a synthetic forward view (no payload,
  // so payload-predicate rules fail closed), since the reply tuple never
  // matched the rules in the first place. Set to keep serving cached
  // verdicts across hot reloads — the stateful-firewall keep-alive
  // behaviour, now opt-in.
  bool flow_keepalive_across_reloads = false;
  // Optional: verdict notifications for count/reject are raised here.
  nucleus::EventService* events = nullptr;
  // Optional: shared artifact cache — hot reloads of previously seen rule
  // sets skip compile-output re-verification and re-decode entirely.
  sfi::VerifiedProgramCache* program_cache = nullptr;
  // Optional: with a clock, flows idle for `flow_ttl` virtual nanoseconds
  // expire (0 disables expiry). The same clock feeds the procedures' `now`
  // host helper (ratelimit needs it for meaningful rates; without a clock
  // the helper falls back to the evaluation counter).
  const VirtualClock* clock = nullptr;
  VTime flow_ttl = 0;
  // Code-generation backend for compiled rule sets.
  CompileOptions compile;
  // Rule-procedure registry consulted at load time (null = BuiltIns()).
  const RuleProcRegistry* procs = nullptr;
  // Per-invocation instruction budget for sandboxed procedures. Exhaustion
  // mid-chain drops the packet (fail closed), never the filter.
  uint64_t proc_fuel = 100'000;
  // Seed for the procedures' deterministic random host helper. The helper is
  // identical across execution modes, so two filters with the same seed and
  // packet sequence make the same rndblock decisions whether sandboxed or
  // certified-trusted.
  uint64_t proc_seed = 0x9E3779B97F4A7C15ull;
};

struct FilterStats {
  uint64_t evaluated = 0;
  uint64_t pass = 0;
  uint64_t drop = 0;
  uint64_t reject = 0;
  uint64_t proc_invocations = 0;   // procedure runs that completed
  uint64_t flow_hits = 0;          // verdicts served from the flow table
  uint64_t flow_hits_reverse = 0;  // of which: reply-direction (reverse tuple)
  uint64_t reloads = 0;            // successful Load/LoadCertified calls
  uint64_t events_raised = 0;
  uint64_t vm_faults = 0;  // sandboxed program faulted; packet fail-closed
  uint64_t descriptor_faults = 0;     // descriptor marshalling failed; fail-closed
  uint64_t flow_reevaluations = 0;    // stale-epoch flow hits sent back to the rules
  uint64_t proc_blocks = 0;           // packets a procedure blocked
  uint64_t proc_faults = 0;           // procedure faulted/ran dry; packet dropped
};

// StatsSlot's slot order, by name. This array is the single source of truth
// shared by the control interface, the telemetry aliases ("filter.<name>.*"
// metrics are registered in this order), and the slot-map test — a new slot
// added here without a matching StatsSlot case (or vice versa) fails the
// table-driven test instead of silently aliasing a neighbour.
inline constexpr std::string_view kFilterStatsSlotNames[] = {
    "evaluated",           // 0
    "pass",                // 1
    "drop",                // 2
    "reject",              // 3
    "proc_invocations",    // 4
    "flow_hits",           // 5
    "reloads",             // 6
    "events_raised",       // 7
    "vm_faults",           // 8
    "flow_hits_reverse",   // 9
    "descriptor_faults",   // 10
    "flow_reevaluations",  // 11
    "proc_blocks",         // 12
    "proc_faults",         // 13
    "backend_jit",         // 14 (gauge: 1 when the installed VM runs the JIT)
    "jit_runs",            // 15
};

// Sharded data-plane limits. kMaxFilterShards bounds the steering set the
// batch path tracks in one machine word; the batch constants fix the
// descriptor-slot layout every shard Vm's memory is provisioned for: a burst
// chunk marshals up to kMaxFilterBatch descriptors side by side at
// kFilterBatchSlot-byte stride, then evaluates each by re-basing guest
// address 0 onto its slot (one VM burst per shard per chunk, amortizing
// JitContext setup and the native prologue across the burst).
inline constexpr size_t kMaxFilterShards = 64;
inline constexpr size_t kMaxFilterBatch = net::kBurstChunk;  // packets per burst chunk
inline constexpr size_t kFilterBatchSlot = 256;  // bytes per descriptor slot
static_assert(kFilterBatchSlot >= kDescriptorBytes,
              "a descriptor (header fields + payload capture) must fit its slot");

class PacketFilter : public obj::Object {
 public:
  // Starts with an empty sandboxed rule set (default verdict: pass).
  static Result<std::unique_ptr<PacketFilter>> Create(FilterConfig config);

  // Compiles, verifies, and installs `rules` for sandboxed execution — the
  // path for untrusted rule sets. An unverified program is never installed:
  // installation consumes the VerifiedProgram verification produced.
  Status Load(const RuleSet& rules);

  // The certified path: compiles and verifies as above, then has `certifier`
  // sign the compiled program and the kernel's certification service
  // validate it for kernel residence. Only then does the program run
  // kTrusted, with no run-time checks. Both loads are hot: the flow table
  // survives, but the epoch bump sends established flows back through the
  // new rules on their next packet unless keep-alive is configured.
  Status LoadCertified(const RuleSet& rules, nucleus::Certifier& certifier,
                       const nucleus::CertificationService& service);

  // Evaluates one packet: flow-table fast path first (either direction),
  // then the compiled classifier. A sandboxed program fault fails closed
  // (drop). The packet is steered to its shard; the shard pins the live
  // rule-set generation for the duration (epoch-based reclamation — a
  // concurrent reload never frees a generation mid-evaluation when
  // shards > 1; see AnnounceShard for the single-shard caveat).
  net::FilterDecision Evaluate(const net::PacketView& view, net::FilterDirection dir);

  // Evaluates a burst: decisions[i] receives views[i]'s verdict, with
  // per-packet verdicts, flow-table updates, stats, and procedure-chain
  // semantics bit-identical to calling Evaluate in a loop (the differential
  // test enforces it). The win is amortization: descriptors are marshalled
  // into per-shard VM slot memory up front, each touched shard pins the
  // generation once, and each shard's classifier runs as one Vm::Burst —
  // JitContext invariants written once, stats flushed once. Requires
  // decisions.size() >= views.size().
  void EvaluateBatch(std::span<const net::PacketView> views, net::FilterDirection dir,
                     std::span<net::FilterDecision> decisions);

  // Adapter for ProtocolStack::SetIngressFilter/SetEgressFilter.
  net::FilterHook Hook();

  // Adapter for ProtocolStack::SetIngressBatchFilter (batched ingress).
  net::FilterBatchHook BatchHook();

  // One instantiated procedure: its spec, its own verified program (and, on
  // the certified path, its own validated certificate) and its own VM —
  // procedure state is per rule, never shared.
  struct ProcInstance {
    ProcInstance(RuleProcSpec s, uint16_t ordinal_id,
                 std::shared_ptr<const sfi::VerifiedProgram> p, sfi::ExecMode mode)
        : spec(std::move(s)), ordinal(ordinal_id), program(std::move(p)),
          vm(program.get(), mode) {}
    RuleProcSpec spec;
    uint16_t ordinal;  // 1-based flat id across all chains (event detail)
    std::shared_ptr<const sfi::VerifiedProgram> program;
    sfi::Vm vm;
    uint64_t invocations = 0;
    uint64_t blocks = 0;
    uint64_t faults = 0;
  };
  using ProcChain = std::vector<std::unique_ptr<ProcInstance>>;

  sfi::ExecMode mode() const { return LiveGen()->shards[0]->vm.mode(); }
  size_t rule_count() const { return LiveGen()->rule_count; }
  CompileBackend backend() const { return LiveGen()->backend; }
  // The SFI execution backend actually serving the classifier (kJit or the
  // threaded fallback — never kAuto). Exposed so callers can assert the
  // backend they think they are measuring is the one running; also slot 14
  // of StatsSlot, with vm_stats().jit_runs at slot 15.
  sfi::VmBackend exec_backend() const { return LiveGen()->shards[0]->vm.backend(); }
  uint32_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  const std::string& name() const { return config_.name; }
  // Stats are per shard and merged on read (the sharded counterpart of the
  // old single struct — by value now, so callers see a snapshot).
  FilterStats stats() const;
  // Classifier VmStats merged across the live generation's shard VMs.
  sfi::VmStats vm_stats() const;
  // Shard 0's VM bound to the installed program (diagnostics and
  // fault-injection tests; Evaluate owns its descriptor memory between
  // packets). Single-shard filters — the default — have exactly one.
  sfi::Vm& vm() { return LiveGen()->shards[0]->vm; }
  const sfi::VerifiedProgram& verified_program() const { return *LiveGen()->program; }
  // Shard 0's flow-table partition (the whole table when shards == 1), or a
  // specific shard's.
  FlowTable& flows() { return flows(0); }
  FlowTable& flows(size_t shard) { return shards_[shard]->flows; }
  // The installed procedure chains (chains()[i] backs chain id i+1); state
  // is per shard, shard 0 by default.
  const std::vector<ProcChain>& chains() const { return chains(0); }
  const std::vector<ProcChain>& chains(size_t shard) const {
    return LiveGen()->shards[shard]->chains;
  }

  size_t shard_count() const { return shards_.size(); }
  // The shard `view`'s conversation steers to: SymmetricFlowHash modulo the
  // shard count, so forward and reply packets agree (the property test
  // enforces it). Exposed so drivers/benches can pre-steer per-queue
  // traffic the way hardware RSS would.
  size_t SteerShard(const net::PacketView& view) const {
    if (shards_.size() == 1) {
      return 0;
    }
    return static_cast<size_t>(
        SymmetricFlowHash(FlowKey{view.src_ip, view.dst_ip, view.src_port, view.dst_port,
                                  view.proto}) %
        shards_.size());
  }
  // Live flow entries across all shards.
  uint64_t flow_count() const;

  // Epoch-based reclamation controls. Retired generations (replaced by a
  // reload but possibly still pinned by an in-flight burst) are reclaimed
  // automatically on the next reload and at burst exit; ReclaimRetired
  // forces a scan now. retired_generations() counts the still-unreclaimed
  // ones (0 once every shard has passed a quiescent point).
  void ReclaimRetired();
  size_t retired_generations();
  // Test-only: pins `shard` at the current epoch as if a burst were in
  // flight (or idles it again), letting tests drive the quiescence protocol
  // deterministically.
  void DebugPinShard(size_t shard) { AnnounceShard(*shards_[shard]); }
  void DebugUnpinShard(size_t shard) { UnpinShard(*shards_[shard]); }

  // FilterType() slot implementations (uniform u64 convention).
  uint64_t StatsSlot(uint64_t index, uint64_t, uint64_t, uint64_t);
  uint64_t RuleCountSlot(uint64_t, uint64_t, uint64_t, uint64_t);
  uint64_t ModeSlot(uint64_t, uint64_t, uint64_t, uint64_t);
  uint64_t FlowCountSlot(uint64_t, uint64_t, uint64_t, uint64_t);

 private:
  struct Shard;

  // Per-shard execution state bound to one installed generation: a
  // classifier VM (own JitContext, sharing the generation's verified program
  // and its one compiled JitProgram) plus the shard's procedure-chain
  // instances with their persistent per-shard VM state.
  struct ShardExec {
    ShardExec(const sfi::VerifiedProgram* p, sfi::ExecMode mode) : vm(p, mode) {}
    sfi::Vm vm;
    std::vector<ProcChain> chains;  // chains[i] backs chain id i+1
  };

  // One installed rule-set generation. The verified artifact is shared
  // (cache, in-flight readers); the generation itself is owned by
  // generations_ and reclaimed by the epoch protocol once no shard can
  // still be using it — a hot reload never blocks the data plane.
  struct LoadedProgram {
    std::shared_ptr<const sfi::VerifiedProgram> program;
    size_t rule_count = 0;
    size_t payload_bytes_needed = 0;
    CompileBackend backend = CompileBackend::kLinear;
    uint32_t install_epoch = 0;  // the epoch this generation defines
    // Epoch at which this generation was replaced; 0 while live. Guarded by
    // reload_mu_.
    uint64_t retired_at = 0;
    std::vector<std::unique_ptr<ShardExec>> shards;  // one per data-plane shard
  };

  // Announce-slot sentinel: the shard is at a quiescent point (no burst in
  // flight). Compares greater than every epoch, so idle shards never hold a
  // retired generation back.
  static constexpr uint64_t kShardIdle = ~uint64_t{0};

  // One data-plane shard: flow-table partition, stats, procedure RNG stream,
  // trace-sampling state, and the EBR announce slot. Cache-line aligned so
  // per-queue workers do not false-share counters.
  struct alignas(64) Shard {
    Shard(PacketFilter* filter, size_t shard_index, size_t flow_capacity, uint64_t rng_seed)
        : owner(filter),
          index(shard_index),
          flows(flow_capacity, filter->config_.clock, filter->config_.flow_ttl),
          rng_state(rng_seed) {}
    PacketFilter* owner;
    size_t index;
    FlowTable flows;
    FilterStats stats;
    uint64_t rng_state;  // xorshift64* state behind RandomHelper
    // 1-in-32 sampling state for classifier-path latency/tracing. The
    // flow-hit fast path is deliberately untouched: its telemetry is all
    // aliases. Batch evaluation never samples.
    uint64_t telemetry_sample = 0;
    bool trace_sample_active = false;
    // EBR announce slot: the rule-set epoch pinned by the burst in flight on
    // this shard, or kShardIdle at a quiescent point.
    std::atomic<uint64_t> pinned{kShardIdle};
  };

  explicit PacketFilter(FilterConfig config);

  Result<std::shared_ptr<const sfi::VerifiedProgram>> VerifyProgram(const sfi::Program& program);
  // Generates, verifies and (for kTrusted) certifies each procedure spec in
  // `compiled.chains` ONCE, then instantiates one VM per spec per shard from
  // the same verified program (ordinals identical across shards). Any
  // failure fails the whole load — nothing partial is ever installed.
  // Returns chains indexed [shard][chain].
  Result<std::vector<std::vector<ProcChain>>> InstantiateChains(
      const CompiledFilter& compiled, sfi::ExecMode mode, nucleus::Certifier* certifier,
      const nucleus::CertificationService* service);
  Status Install(const CompiledFilter& compiled,
                 std::shared_ptr<const sfi::VerifiedProgram> program,
                 std::vector<std::vector<ProcChain>> chains, sfi::ExecMode mode);
  void RaiseEvent(Shard& shard, uint64_t detail);
  void NotifyVerdict(Shard& shard, const net::FilterDecision& decision, net::FilterDirection dir);
  // Registers the "filter.<config.name>.*" aliases (slot table + flow-table
  // stats, both merged across shards at snapshot time); called once from
  // Create, after the bootstrap load.
  void RegisterMetrics();
  // Sampled classifier-path latency: ends the "filter.classify" span and
  // records the ticks into the per-verdict histogram.
  void RecordClassifyLatency(net::FilterVerdict verdict, uint64_t ticks);
  // Single-packet classifier run on `shard`'s VM of `gen` (descriptor at
  // guest address 0), failing closed on marshal or VM faults.
  uint64_t Classify(Shard& shard, LoadedProgram& gen, const net::PacketView& view);
  void CountVerdict(Shard& shard, const net::FilterDecision& decision, net::FilterDirection dir);
  // Runs `decision`'s procedure chain (if any) over `view`, applying block /
  // event / TTL results to the decision in place.
  void RunChain(Shard& shard, LoadedProgram& gen, net::FilterDecision* decision,
                const net::PacketView& view, net::FilterDirection dir);
  // The shared evaluation engine: flow fast path, stale-epoch re-decide,
  // chain dispatch, verdict counting, flow establishment. `classify(view,
  // synthetic)` runs the classifier — the single path runs the shard VM
  // directly, the batch path calls into its per-shard burst (re-marshalling
  // slot contents when `synthetic`). kSampled gates the 1-in-32 classifier
  // trace sampling (single-packet path only), which FilterStats never sees —
  // so batch and single stats stay bit-identical.
  template <bool kSampled, typename ClassifyFn>
  net::FilterDecision EvaluateOn(Shard& shard, LoadedProgram& gen, const net::PacketView& view,
                                 net::FilterDirection dir, ClassifyFn&& classify);
  // One chunk of at most kMaxFilterBatch packets: steer, pin touched shards,
  // pre-marshal descriptors, evaluate in order through per-shard bursts.
  void EvaluateChunk(std::span<const net::PacketView> views, net::FilterDirection dir,
                     net::FilterDecision* out);

  // EBR reader protocol: announce the current epoch on the shard, THEN load
  // the live generation (AnnounceShard before LoadLivePinned, both seq_cst
  // when sharded). The writer publishes the new generation and epoch before
  // scanning announce slots, so — by the seq_cst total order — a reader that
  // observed the old generation has its older pinned epoch visible to every
  // subsequent scan, and the generation survives until the shard goes idle.
  // Single-shard filters use relaxed ordering: no fences on the packet path
  // (today's cost model), with today's semantics — a reload from a thread
  // concurrently evaluating on the same single shard was never safe.
  void AnnounceShard(Shard& shard);
  LoadedProgram* LoadLivePinned();
  void UnpinShard(Shard& shard);
  void ReclaimRetiredLocked();
  LoadedProgram* LiveGen() const { return live_.load(std::memory_order_acquire); }
  FilterStats MergedStats() const;

  // Host helpers bound on every procedure VM (ctx = the owning Shard, so
  // each shard's rndblock stream and rate-limiter clocks are independent and
  // deterministic).
  static uint64_t NowHelper(void* ctx, uint64_t arg);
  static uint64_t RandomHelper(void* ctx, uint64_t modulus);

  FilterConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint32_t> epoch_{0};
  std::atomic<LoadedProgram*> live_{nullptr};
  std::atomic<bool> reclaim_pending_{false};
  std::mutex reload_mu_;
  std::vector<std::unique_ptr<LoadedProgram>> generations_;  // guarded by reload_mu_
  // Registry aliases onto the members above — declared last so they
  // unregister before their sources are destroyed.
  telemetry::ScopedMetricGroup metrics_;
};

}  // namespace para::filter

#endif  // PARAMECIUM_SRC_FILTER_FILTER_H_
