#include "src/sfi/vm.h"

#include <cstring>
#include <utility>

#include "src/base/log.h"
#include "src/base/telemetry.h"
#include "src/sfi/analysis.h"
#include "src/sfi/jit.h"

// Threaded-code dispatch needs GNU labels-as-values; every supported
// toolchain (gcc, clang) has them.
#if !defined(__GNUC__) && !defined(__clang__)
#error "the SFI threaded loop needs labels-as-values (gcc or clang)"
#endif

namespace para::sfi {

namespace {

// The static analyzer works from a mirrored copy of this engine's stack
// limit (analysis.h cannot include vm.h — the verifier sits below the VM in
// the layer DAG). A stack-envelope proof is only sound if the mirror agrees
// with the real constant, so pin it here. (Window sizes need no mirror: the
// constructor sizes them with the analyzer's own UsableMemorySize.)
static_assert(analysis::kStackSlots == Vm::kStackSlots,
              "analyzer stack-envelope proofs assume the VM stack size");

// Codes and messages are byte-identical to RunImpl's: callers (and the
// differential tests) must not be able to tell the backends apart.
Status JitFaultToStatus(JitFault fault) {
  switch (fault) {
    case JitFault::kNone:
      break;  // callers handle the clean exit themselves
    case JitFault::kOutOfFuel:
      return Status(ErrorCode::kResourceExhausted, "out of fuel");
    case JitFault::kLoadOutOfBounds:
      return Status(ErrorCode::kOutOfRange, "load out of bounds");
    case JitFault::kStoreOutOfBounds:
      return Status(ErrorCode::kOutOfRange, "store out of bounds");
    case JitFault::kDivideByZero:
      return Status(ErrorCode::kInvalidArgument, "divide by zero");
    case JitFault::kStackUnderflow:
      return Status(ErrorCode::kFailedPrecondition, "stack underflow");
    case JitFault::kStackOverflow:
      return Status(ErrorCode::kResourceExhausted, "stack overflow");
    case JitFault::kCallDepth:
      return Status(ErrorCode::kResourceExhausted, "call depth exceeded");
    case JitFault::kUnboundHostHelper:
      return Status(ErrorCode::kFailedPrecondition, "unbound host helper");
    case JitFault::kPcOutOfCode:
      return Status(ErrorCode::kOutOfRange, "pc out of code");
  }
  return Status(ErrorCode::kInternal, "jit: bad fault code");
}

}  // namespace

Vm::Vm(const VerifiedProgram* program, ExecMode mode, VmBackend backend, size_t slots)
    // Power-of-two windows so trusted mode can mask addresses; +8 bytes of
    // slack so a masked address near the top of the last window can still
    // take a full-width access without a range branch on the hot path.
    : program_(program),
      mode_(mode),
      backend_(backend == VmBackend::kThreaded || !JitAvailable() ? VmBackend::kThreaded
                                                                  : VmBackend::kJit),
      window_(analysis::UsableMemorySize(program->program.memory_bytes)),
      slots_(slots),
      memory_(slots * window_ + 8, 0) {
  PARA_CHECK(slots >= 1);
}

Vm::~Vm() = default;

void Vm::SetHostHelper(size_t index, HostHelper helper, void* ctx) {
  PARA_CHECK(index < kMaxHostHelpers);
  host_helpers_[index] = helper;
  host_ctx_[index] = ctx;
}

bool Vm::CallHostHelper(uint32_t slot, uint64_t* top) {
  // Both modes take the null-slot branch: helper behaviour must be mode-
  // invariant for certified code to match its sandboxed differential.
  HostHelper helper = host_helpers_[slot];
  if (helper == nullptr) {
    return false;
  }
  *top = helper(host_ctx_[slot], *top);
  return true;
}

Result<uint64_t> Vm::Run(size_t method, uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3) {
  if constexpr (telemetry::kEnabled) {
    // One static guard + one relaxed per-thread store on every run; the
    // expensive parts (TSC reads, a trace span carrying the resolved
    // backend, the latency histogram) are sampled 1-in-64 using the run
    // counter itself as the sequence number.
    static struct {
      telemetry::Counter runs = telemetry::Registry::Get().counter("sfi.vm.runs");
      telemetry::Histogram ticks = telemetry::Registry::Get().histogram("sfi.vm.run_ticks");
    } telem;
    const uint64_t n = telem.runs.IncAndCount();
    if ((n & 63) == 0) [[unlikely]] {
      telemetry::EmitTrace("sfi.vm.run", telemetry::TracePhase::kBegin,
                           static_cast<uint64_t>(backend_));
      const uint64_t t0 = telemetry::TraceClock();
      Result<uint64_t> result = RunDispatch(method, a0, a1, a2, a3);
      telem.ticks.Record(telemetry::TraceClock() - t0);
      // End arg carries the backend that actually served the run (a lazy
      // JIT-compile failure flips backend_ inside RunDispatch).
      telemetry::EmitTrace("sfi.vm.run", telemetry::TracePhase::kEnd,
                           static_cast<uint64_t>(backend_));
      return result;
    }
  }
  return RunDispatch(method, a0, a1, a2, a3);
}

bool Vm::ResolveJit() {
  if (backend_ == VmBackend::kJit && jit_ == nullptr) [[unlikely]] {
    auto compiled = GetOrCompileJit(*program_, mode_);
    if (compiled.ok()) {
      jit_ = std::move(compiled).value();
    } else {
      // Fail open to the portable loop, but observably: backend() flips so
      // tests (and the filter's stats) can tell fallback from a JIT run.
      backend_ = VmBackend::kThreaded;
    }
  }
  return backend_ == VmBackend::kJit;
}

void Vm::FoldJitCounters(const JitContext& ctx, uint64_t instructions, uint64_t runs) {
  stats_.instructions += instructions;
  if (mode_ == ExecMode::kSandboxed) {
    // Same flush-time fold as CounterFlush: ctx.bounds_checks holds the
    // dynamically tested accesses, ctx.static_proofs the elided ones; their
    // sum is the coverage count VmStats::bounds_checks reports.
    stats_.bounds_checks += ctx.bounds_checks + ctx.static_proofs;
    stats_.static_proofs += ctx.static_proofs;
  }
  stats_.calls += ctx.calls;
  stats_.host_calls += ctx.host_calls;
  stats_.jit_runs += runs;
}

Result<uint64_t> Vm::RunDispatch(size_t method, uint64_t a0, uint64_t a1, uint64_t a2,
                                 uint64_t a3) {
  if (method >= program_->entry_points.size()) {
    return Status(ErrorCode::kNotFound, "no such entry point");
  }
  if (ResolveJit()) {
    return RunJit(method, a0, a1, a2, a3);
  }
  // Compile-time specialization: the trusted loop contains no trace of the
  // run-time checks, exactly like certified native code.
  if (mode_ == ExecMode::kSandboxed) {
    return RunImpl<true>(method, a0, a1, a2, a3, 0);
  }
  return RunImpl<false>(method, a0, a1, a2, a3, 0);
}

JitContext& Vm::JitCtx() {
  if (jit_ctx_ == nullptr) [[unlikely]] {
    jit_ctx_ = std::make_unique<JitContext>();
    // Invariant fields, written once at attach. The helper table pointers
    // target the member arrays themselves, so SetHostHelper's in-place
    // writes are visible without re-publishing.
    jit_ctx_->helpers = host_helpers_;
    jit_ctx_->helper_ctx = host_ctx_;
    // Memory never moves, so slot 0's window is invariant too; a burst that
    // points ctx.mem at other slots restores it when it closes.
    jit_ctx_->mem = memory_.data();
    jit_ctx_->mem_size = window_;
  }
  return *jit_ctx_;
}

Result<uint64_t> Vm::RunJit(size_t method, uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3) {
  JitContext& ctx = JitCtx();
  ctx.args[0] = a0;
  ctx.args[1] = a1;
  ctx.args[2] = a2;
  ctx.args[3] = a3;
  // instructions and result need no reset: every exit path (fault stubs
  // included) funnels through the common epilogue, which overwrites
  // ctx.instructions from the retire counter, and ctx.result is written by
  // every clean exit and unread on faults. The incremented-in-place
  // counters and the call stack pointer DO need zeroing per run — except
  // that trusted code neither reads fuel nor touches bounds_checks (the
  // prologue skips the fuel load; no checks are emitted), so those two
  // fields go untouched on the trusted path.
  if (mode_ == ExecMode::kSandboxed) {
    ctx.fuel = fuel_;
    ctx.bounds_checks = 0;
    ctx.static_proofs = 0;
  }
  ctx.calls = 0;
  ctx.host_calls = 0;
  ctx.call_sp = 0;

  const JitFault fault = jit_->Run(method, &ctx);

  // Counter deltas land in stats_ on every exit, fault or clean — the same
  // contract as the interpreter's CounterFlush destructor.
  FoldJitCounters(ctx, ctx.instructions, 1);

  if (fault == JitFault::kNone) {
    return ctx.result;
  }
  return JitFaultToStatus(fault);
}

Vm::Burst::Burst(Vm& vm, size_t method)
    : vm_(&vm), method_(method), valid_(method < vm.program_->entry_points.size()) {
  // Resolve the backend exactly like RunDispatch — lazy compile, observable
  // fallback — so a burst is indistinguishable from a loop of Run().
  jit_ = valid_ && vm_->ResolveJit();
  if (jit_) {
    JitContext& ctx = vm_->JitCtx();
    ctx.args[1] = 0;
    ctx.args[2] = 0;
    ctx.args[3] = 0;
    // Zeroed once here; the generated code increments them in place, so they
    // accumulate across the whole burst and flush in the destructor.
    ctx.bounds_checks = 0;
    ctx.static_proofs = 0;
    ctx.calls = 0;
    ctx.host_calls = 0;
  }
}

Vm::Burst::~Burst() {
  if (vm_ == nullptr) {
    return;  // moved-from
  }
  if (jit_) {
    JitContext& ctx = *vm_->jit_ctx_;
    vm_->FoldJitCounters(ctx, instructions_, jit_runs_);
    // Calls pointed ctx.mem at their slots; Run() expects slot 0.
    ctx.mem = vm_->memory_.data();
  }
  if constexpr (telemetry::kEnabled) {
    if (runs_ > 0) {
      static telemetry::Counter counter = telemetry::Registry::Get().counter("sfi.vm.runs");
      counter.Add(runs_);
    }
  }
}

Result<uint64_t> Vm::Burst::Call(size_t slot, uint64_t a0) {
  if (!valid_) {
    return Status(ErrorCode::kNotFound, "no such entry point");
  }
  PARA_CHECK(slot < vm_->slots_);
  ++runs_;
  if (!jit_) {
    // Threaded backend: RunImpl flushes its own counters per call; only the
    // slot differs from a plain Run().
    if (vm_->mode_ == ExecMode::kSandboxed) {
      return vm_->RunImpl<true>(method_, a0, 0, 0, 0, slot);
    }
    return vm_->RunImpl<false>(method_, a0, 0, 0, 0, slot);
  }
  JitContext& ctx = *vm_->jit_ctx_;
  ctx.args[0] = a0;
  ctx.mem = vm_->memory_.data() + slot * vm_->window_;  // mem_size is the window already
  ctx.fuel = vm_->fuel_;
  ctx.call_sp = 0;

  const JitFault fault = vm_->jit_->Run(method_, &ctx);
  instructions_ += ctx.instructions;
  ++jit_runs_;
  if (fault == JitFault::kNone) {
    return ctx.result;
  }
  return JitFaultToStatus(fault);
}

bool Vm::Burst::CallMany(size_t first_slot, size_t count, uint64_t* out) {
  if (!valid_ || !jit_ || count == 0 || first_slot >= vm_->slots_ ||
      count > vm_->slots_ - first_slot) {
    return false;
  }
  JitContext& ctx = *vm_->jit_ctx_;
  ctx.args[0] = 0;
  ctx.burst_mem = vm_->memory_.data() + first_slot * vm_->window_;
  ctx.burst_count = count;
  ctx.burst_fuel = vm_->fuel_;
  ctx.burst_out = out;
  vm_->jit_->RunBurst(method_, &ctx);
  // The trampoline left the burst's total retire count in ctx.instructions;
  // per-slot jit_runs accounting matches a loop of Call().
  runs_ += count;
  jit_runs_ += count;
  instructions_ += ctx.instructions;
  return true;
}

template <bool kSandboxed>
Result<uint64_t> Vm::RunImpl(size_t method, uint64_t a0, uint64_t a1, uint64_t a2, uint64_t a3,
                             size_t slot) {
  const DecodedInsn* const code = program_->code.data();
  constexpr bool sandboxed = kSandboxed;
  const size_t mem_size = window_;
  uint8_t* const mem = memory_.data() + slot * window_;
  (void)mem_size;

  uint64_t stack[kStackSlots];
  size_t sp = 0;  // next free slot
  size_t call_stack[kCallDepth];
  size_t csp = 0;
  const uint64_t args[4] = {a0, a1, a2, a3};
  size_t pc = program_->entry_points[method];
  uint64_t fuel = fuel_;

  // Counters accumulate in locals and flush on scope exit so the hot loop
  // carries no extra stores.
  struct CounterFlush {
    uint64_t instructions = 0;
    uint64_t checks = 0;  // dynamically tested accesses only
    uint64_t proofs = 0;  // statically discharged accesses (elided handlers)
    uint64_t calls = 0;
    uint64_t host_calls = 0;
    VmStats* stats;
    explicit CounterFlush(VmStats* s) : stats(s) {}
    ~CounterFlush() {
      stats->instructions += instructions;
      // bounds_checks is check *coverage*: dynamic tests plus statically
      // discharged accesses. Folding at flush time keeps elided handlers at
      // one counter bump each, same as checked ones.
      stats->bounds_checks += checks + proofs;
      stats->static_proofs += proofs;
      stats->calls += calls;
      stats->host_calls += host_calls;
    }
  } counters(&stats_);

  const DecodedInsn* insn;

// Per-instruction prologue for *real* instructions. Fuel is metered before
// the retire count, matching the byte-interpreter's order exactly, so
// VmStats.instructions and fuel exhaustion points are bit-identical to the
// pre-decoded engine's predecessor. Synthetic instructions (kCheckStack,
// kEndOfCode) are free: they exist only in the decoded stream.
#define VM_METER()                                                    \
  do {                                                                \
    if constexpr (sandboxed) {                                        \
      if (fuel-- == 0) {                                              \
        return Status(ErrorCode::kResourceExhausted, "out of fuel");  \
      }                                                               \
    }                                                                 \
    ++counters.instructions;                                          \
  } while (0)

  static const void* const kLabels[kDecodedOpCount] = {
      &&lbl_halt, &&lbl_push, &&lbl_drop, &&lbl_dup, &&lbl_swap, &&lbl_add, &&lbl_sub,
      &&lbl_mul, &&lbl_divu, &&lbl_remu, &&lbl_and_, &&lbl_or_, &&lbl_xor_, &&lbl_shl,
      &&lbl_shr, &&lbl_eq, &&lbl_ne, &&lbl_ltu, &&lbl_gtu, &&lbl_not_, &&lbl_load8,
      &&lbl_load16, &&lbl_load32, &&lbl_load64, &&lbl_store8, &&lbl_store16, &&lbl_store32,
      &&lbl_store64, &&lbl_jmp, &&lbl_jz, &&lbl_jnz, &&lbl_call, &&lbl_ret, &&lbl_ldarg,
      &&lbl_retv, &&lbl_hostcall, &&lbl_check, &&lbl_end, &&lbl_pushload8, &&lbl_pushload16,
      &&lbl_pushload32, &&lbl_pushload64, &&lbl_eqjz, &&lbl_eqjnz, &&lbl_nejz, &&lbl_nejnz,
      &&lbl_ltujz, &&lbl_ltujnz, &&lbl_gtujz, &&lbl_gtujnz,
      &&lbl_load8e,  &&lbl_load16e,  &&lbl_load32e,  &&lbl_load64e,
      &&lbl_store8e, &&lbl_store16e, &&lbl_store32e, &&lbl_store64e,
      &&lbl_pushload8e, &&lbl_pushload16e, &&lbl_pushload32e, &&lbl_pushload64e,
  };
#define VM_OP(name, value) lbl_##name:
#define VM_NEXT()                 \
  do {                            \
    insn = code + pc;             \
    goto* kLabels[insn->op];      \
  } while (0)
#define VM_DISPATCH_BEGIN() VM_NEXT();

#define VM_BINOP(name, value, expr)  \
  VM_OP(name, value) {               \
    VM_METER();                      \
    uint64_t rhs = stack[--sp];      \
    uint64_t lhs = stack[sp - 1];    \
    stack[sp - 1] = (expr);          \
    ++pc;                            \
    VM_NEXT();                       \
  }

#define VM_LOAD(name, value, width)                                  \
  VM_OP(name, value) {                                               \
    VM_METER();                                                      \
    uint64_t addr = stack[sp - 1];                                   \
    if constexpr (sandboxed) {                                       \
      ++counters.checks;                                             \
      /* overflow-proof: addr + width can wrap for addr near 2^64 */ \
      if (addr > mem_size || mem_size - addr < (width)) {            \
        return Status(ErrorCode::kOutOfRange, "load out of bounds"); \
      }                                                              \
    }                                                                \
    /* trusted: raw access — certified code IS trusted with this memory */ \
    uint64_t loaded = 0;                                             \
    std::memcpy(&loaded, mem + addr, (width));                       \
    stack[sp - 1] = loaded;                                          \
    ++pc;                                                            \
    VM_NEXT();                                                       \
  }

// Superinstructions. Each one meters TWICE, in the same order the unfused
// pair would (fuel check precedes each retire), so instruction counts and
// fuel-exhaustion boundaries are bit-identical to the plain stream. The
// first half of every fused pair is pure stack traffic, so a fault on the
// second half leaves no externally visible partial effect.

// push imm; loadN — the address is an immediate, so no stack round trip.
#define VM_FUSED_PUSH_LOAD(name, value, width)                       \
  VM_OP(name, value) {                                               \
    VM_METER(); /* the push */                                       \
    VM_METER(); /* the load */                                       \
    uint64_t addr = insn->imm;                                       \
    if constexpr (sandboxed) {                                       \
      ++counters.checks;                                             \
      if (addr > mem_size || mem_size - addr < (width)) {            \
        return Status(ErrorCode::kOutOfRange, "load out of bounds"); \
      }                                                              \
    }                                                                \
    uint64_t loaded = 0;                                             \
    std::memcpy(&loaded, mem + addr, (width));                       \
    stack[sp++] = loaded;                                            \
    ++pc;                                                            \
    VM_NEXT();                                                       \
  }

// cmp; jz/jnz — `taken` is the branch condition with the comparison folded
// in (e.g. eq+jz takes the branch when lhs != rhs).
#define VM_FUSED_CMP_JUMP(name, value, taken) \
  VM_OP(name, value) {                        \
    VM_METER(); /* the compare */             \
    VM_METER(); /* the branch */              \
    uint64_t rhs = stack[--sp];               \
    uint64_t lhs = stack[--sp];               \
    pc = (taken) ? insn->target : pc + 1;     \
    VM_NEXT();                                \
  }

#define VM_STORE(name, value, width)                                  \
  VM_OP(name, value) {                                                \
    VM_METER();                                                       \
    uint64_t stored = stack[--sp];                                    \
    uint64_t addr = stack[--sp];                                      \
    if constexpr (sandboxed) {                                        \
      ++counters.checks;                                              \
      /* overflow-proof: addr + width can wrap for addr near 2^64 */  \
      if (addr > mem_size || mem_size - addr < (width)) {             \
        return Status(ErrorCode::kOutOfRange, "store out of bounds"); \
      }                                                               \
    }                                                                 \
    std::memcpy(mem + addr, &stored, (width));                        \
    ++pc;                                                             \
    VM_NEXT();                                                        \
  }

// Elided accesses: the verifier's analyzer PROVED addr+width <= mem_size for
// every execution reaching this op (every window is exactly the size the
// proof assumed), so the range test is gone. The access is still a guarded one — bounds_checks
// charges it exactly like the checked handler would, static_proofs records
// how it was discharged — and metering keeps the same order (fuel fault
// before either counter moves).
#define VM_LOAD_ELIDED(name, value, width)  \
  VM_OP(name, value) {                      \
    VM_METER();                             \
    if constexpr (sandboxed) {              \
      ++counters.proofs;                    \
    }                                       \
    uint64_t addr = stack[sp - 1];          \
    uint64_t loaded = 0;                    \
    std::memcpy(&loaded, mem + addr, (width)); \
    stack[sp - 1] = loaded;                 \
    ++pc;                                   \
    VM_NEXT();                              \
  }

#define VM_STORE_ELIDED(name, value, width) \
  VM_OP(name, value) {                      \
    VM_METER();                             \
    uint64_t stored = stack[--sp];          \
    uint64_t addr = stack[--sp];            \
    if constexpr (sandboxed) {              \
      ++counters.proofs;                    \
    }                                       \
    std::memcpy(mem + addr, &stored, (width)); \
    ++pc;                                   \
    VM_NEXT();                              \
  }

#define VM_FUSED_PUSH_LOAD_ELIDED(name, value, width) \
  VM_OP(name, value) {                                \
    VM_METER(); /* the push */                        \
    VM_METER(); /* the load */                        \
    if constexpr (sandboxed) {                        \
      ++counters.proofs;                              \
    }                                                 \
    uint64_t loaded = 0;                              \
    std::memcpy(&loaded, mem + insn->imm, (width));   \
    stack[sp++] = loaded;                             \
    ++pc;                                             \
    VM_NEXT();                                        \
  }

  VM_DISPATCH_BEGIN()

  VM_OP(halt, Op::kHalt) {
    VM_METER();
    return uint64_t{0};
  }
  VM_OP(push, Op::kPush) {
    VM_METER();
    stack[sp++] = insn->imm;
    ++pc;
    VM_NEXT();
  }
  VM_OP(drop, Op::kDrop) {
    VM_METER();
    --sp;
    ++pc;
    VM_NEXT();
  }
  VM_OP(dup, Op::kDup) {
    VM_METER();
    stack[sp] = stack[sp - 1];
    ++sp;
    ++pc;
    VM_NEXT();
  }
  VM_OP(swap, Op::kSwap) {
    VM_METER();
    std::swap(stack[sp - 1], stack[sp - 2]);
    ++pc;
    VM_NEXT();
  }

  VM_BINOP(add, Op::kAdd, lhs + rhs)
  VM_BINOP(sub, Op::kSub, lhs - rhs)
  VM_BINOP(mul, Op::kMul, lhs * rhs)
  VM_BINOP(and_, Op::kAnd, lhs & rhs)
  VM_BINOP(or_, Op::kOr, lhs | rhs)
  VM_BINOP(xor_, Op::kXor, lhs ^ rhs)
  VM_BINOP(shl, Op::kShl, rhs >= 64 ? 0 : lhs << rhs)
  VM_BINOP(shr, Op::kShr, rhs >= 64 ? 0 : lhs >> rhs)
  VM_BINOP(eq, Op::kEq, lhs == rhs ? 1 : 0)
  VM_BINOP(ne, Op::kNe, lhs != rhs ? 1 : 0)
  VM_BINOP(ltu, Op::kLtU, lhs < rhs ? 1 : 0)
  VM_BINOP(gtu, Op::kGtU, lhs > rhs ? 1 : 0)

  VM_OP(divu, Op::kDivU) {
    VM_METER();
    uint64_t rhs = stack[--sp];
    if (rhs == 0) {
      return Status(ErrorCode::kInvalidArgument, "divide by zero");
    }
    stack[sp - 1] /= rhs;
    ++pc;
    VM_NEXT();
  }
  VM_OP(remu, Op::kRemU) {
    VM_METER();
    uint64_t rhs = stack[--sp];
    if (rhs == 0) {
      return Status(ErrorCode::kInvalidArgument, "divide by zero");
    }
    stack[sp - 1] %= rhs;
    ++pc;
    VM_NEXT();
  }
  VM_OP(not_, Op::kNot) {
    VM_METER();
    stack[sp - 1] = stack[sp - 1] == 0 ? 1 : 0;
    ++pc;
    VM_NEXT();
  }

  VM_LOAD(load8, Op::kLoad8, 1)
  VM_LOAD(load16, Op::kLoad16, 2)
  VM_LOAD(load32, Op::kLoad32, 4)
  VM_LOAD(load64, Op::kLoad64, 8)
  VM_STORE(store8, Op::kStore8, 1)
  VM_STORE(store16, Op::kStore16, 2)
  VM_STORE(store32, Op::kStore32, 4)
  VM_STORE(store64, Op::kStore64, 8)

  VM_OP(jmp, Op::kJmp) {
    VM_METER();
    pc = insn->target;  // verified: always an instruction start, in bounds
    VM_NEXT();
  }
  VM_OP(jz, Op::kJz) {
    VM_METER();
    pc = (stack[--sp] == 0) ? insn->target : pc + 1;
    VM_NEXT();
  }
  VM_OP(jnz, Op::kJnz) {
    VM_METER();
    pc = (stack[--sp] != 0) ? insn->target : pc + 1;
    VM_NEXT();
  }
  VM_OP(call, Op::kCall) {
    VM_METER();
    if (csp >= kCallDepth) {
      return Status(ErrorCode::kResourceExhausted, "call depth exceeded");
    }
    ++counters.calls;
    call_stack[csp++] = pc + 1;  // fixed-width stream: return pc is one slot on
    pc = insn->target;
    VM_NEXT();
  }
  VM_OP(ret, Op::kRet) {
    VM_METER();
    if (csp == 0) {
      return uint64_t{0};  // return from outermost frame = halt
    }
    pc = call_stack[--csp];
    VM_NEXT();
  }
  VM_OP(ldarg, Op::kLdArg) {
    VM_METER();
    stack[sp++] = args[insn->arg];
    ++pc;
    VM_NEXT();
  }
  VM_OP(retv, Op::kRetV) {
    VM_METER();
    return stack[--sp];
  }
  VM_OP(hostcall, Op::kHostCall) {
    VM_METER();
    if (!CallHostHelper(insn->arg, &stack[sp - 1])) {
      return Status(ErrorCode::kFailedPrecondition, "unbound host helper");
    }
    ++counters.host_calls;
    ++pc;
    VM_NEXT();
  }

  // Synthetic: the per-block stack envelope the verifier hoisted out of the
  // block body. Runs in BOTH modes (it guards the host-side stack array),
  // but is not metered — instruction counts and fuel refer to the byte
  // program. One check here licenses every raw stack[sp] access until the
  // block's terminator.
  VM_OP(check, kOpCheckStack) {
    if (sp < StackCheckNeed(insn->imm)) {
      return Status(ErrorCode::kFailedPrecondition, "stack underflow");
    }
    if (sp + StackCheckGrow(insn->imm) > kStackSlots) {
      return Status(ErrorCode::kResourceExhausted, "stack overflow");
    }
    ++pc;
    VM_NEXT();
  }
  // Synthetic: execution fell off the end of the program.
  VM_OP(end, kOpEndOfCode) {
    return Status(ErrorCode::kOutOfRange, "pc out of code");
  }

  VM_FUSED_PUSH_LOAD(pushload8, kOpFusedPushLoad8, 1)
  VM_FUSED_PUSH_LOAD(pushload16, kOpFusedPushLoad16, 2)
  VM_FUSED_PUSH_LOAD(pushload32, kOpFusedPushLoad32, 4)
  VM_FUSED_PUSH_LOAD(pushload64, kOpFusedPushLoad64, 8)
  VM_FUSED_CMP_JUMP(eqjz, kOpFusedEqJz, lhs != rhs)
  VM_FUSED_CMP_JUMP(eqjnz, kOpFusedEqJnz, lhs == rhs)
  VM_FUSED_CMP_JUMP(nejz, kOpFusedNeJz, lhs == rhs)
  VM_FUSED_CMP_JUMP(nejnz, kOpFusedNeJnz, lhs != rhs)
  VM_FUSED_CMP_JUMP(ltujz, kOpFusedLtUJz, lhs >= rhs)
  VM_FUSED_CMP_JUMP(ltujnz, kOpFusedLtUJnz, lhs < rhs)
  VM_FUSED_CMP_JUMP(gtujz, kOpFusedGtUJz, lhs <= rhs)
  VM_FUSED_CMP_JUMP(gtujnz, kOpFusedGtUJnz, lhs > rhs)

  VM_LOAD_ELIDED(load8e, kOpLoad8Elided, 1)
  VM_LOAD_ELIDED(load16e, kOpLoad16Elided, 2)
  VM_LOAD_ELIDED(load32e, kOpLoad32Elided, 4)
  VM_LOAD_ELIDED(load64e, kOpLoad64Elided, 8)
  VM_STORE_ELIDED(store8e, kOpStore8Elided, 1)
  VM_STORE_ELIDED(store16e, kOpStore16Elided, 2)
  VM_STORE_ELIDED(store32e, kOpStore32Elided, 4)
  VM_STORE_ELIDED(store64e, kOpStore64Elided, 8)
  VM_FUSED_PUSH_LOAD_ELIDED(pushload8e, kOpFusedPushLoad8Elided, 1)
  VM_FUSED_PUSH_LOAD_ELIDED(pushload16e, kOpFusedPushLoad16Elided, 2)
  VM_FUSED_PUSH_LOAD_ELIDED(pushload32e, kOpFusedPushLoad32Elided, 4)
  VM_FUSED_PUSH_LOAD_ELIDED(pushload64e, kOpFusedPushLoad64Elided, 8)

#undef VM_METER
#undef VM_OP
#undef VM_NEXT
#undef VM_DISPATCH_BEGIN
#undef VM_BINOP
#undef VM_LOAD
#undef VM_STORE
#undef VM_FUSED_PUSH_LOAD
#undef VM_FUSED_CMP_JUMP
#undef VM_LOAD_ELIDED
#undef VM_STORE_ELIDED
#undef VM_FUSED_PUSH_LOAD_ELIDED
}

}  // namespace para::sfi
