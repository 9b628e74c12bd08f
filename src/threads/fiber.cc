#include "src/threads/fiber.h"

#include <new>

#if defined(PARA_FIBER_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(PARA_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#include "src/base/log.h"

#if defined(__x86_64__)
// para_fiber_switch(save_sp, load_sp): pushes the callee-saved registers and
// control words, stores rsp to *save_sp, then pops the same layout off
// load_sp and returns on that stack. Saved frame, lowest address first:
// MXCSR (4 bytes), x87 control word (2), pad (2), r15, r14, r13, r12, rbx,
// rbp, return address.
//
// para_fiber_start is where a new fiber's first switch returns to: rbx holds
// the Fiber, r12 the trampoline. The return address is marked undefined so
// unwinders treat this as the outermost frame.
asm(R"(
  .text
  .p2align 4
  .globl para_fiber_switch
  .hidden para_fiber_switch
  .type para_fiber_switch, @function
para_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size para_fiber_switch, .-para_fiber_switch

  .p2align 4
  .globl para_fiber_start
  .hidden para_fiber_start
  .type para_fiber_start, @function
para_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %rbx, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size para_fiber_start, .-para_fiber_start
)");

extern "C" void para_fiber_switch(void** save_sp, void* load_sp);
extern "C" void para_fiber_start();
#endif

namespace para::threads {

namespace {

#if defined(__x86_64__)
// The frame para_fiber_switch pops when it first resumes a new fiber.
struct InitialFrame {
  uint32_t mxcsr = 0;
  uint16_t fpu_control = 0;
  uint16_t pad = 0;
  uint64_t r15 = 0, r14 = 0, r13 = 0, r12 = 0, rbx = 0;
  uint64_t rbp = 0;  // ends frame-pointer chains at the fiber's base
  void (*return_address)() = nullptr;
};
static_assert(sizeof(InitialFrame) == 64);

constexpr uint32_t kDefaultMxcsr = 0x1F80;      // all exceptions masked, round to nearest
constexpr uint16_t kDefaultFpuControl = 0x037F;  // same for x87, extended precision
#endif

#if defined(PARA_FIBER_ASAN)
// The fiber that last switched away on this host thread. The fiber resuming
// after it records its stack bounds, which is how a wrapped host context
// (which owns no stack) learns its own.
thread_local Fiber* asan_switched_from = nullptr;
#endif

}  // namespace

Fiber::Fiber() : started_(true) {}

Fiber::Fiber(std::function<void()> entry, size_t stack_size)
    : stack_(new uint8_t[stack_size]), entry_(std::move(entry)) {
#if defined(PARA_FIBER_ASAN)
  asan_stack_bottom_ = stack_.get();
  asan_stack_size_ = stack_size;
#endif
#if defined(PARA_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
#if defined(__x86_64__)
  // 16 bytes of slack above the frame keep the outermost return-address
  // slot inside the stack. After the switch's `ret`, rsp is 16-aligned, so
  // the stub's call enters Trampoline with rsp ≡ 8 (mod 16).
  auto top = (reinterpret_cast<uintptr_t>(stack_.get()) + stack_size) & ~uintptr_t{15};
  sp_ = new (reinterpret_cast<void*>(top - 16 - sizeof(InitialFrame))) InitialFrame{
      .mxcsr = kDefaultMxcsr,
      .fpu_control = kDefaultFpuControl,
      .r12 = reinterpret_cast<uint64_t>(&Fiber::Trampoline),
      .rbx = reinterpret_cast<uint64_t>(this),
      .return_address = &para_fiber_start,
  };
#else
  getcontext(&context_);
  context_.uc_stack.ss_sp = stack_.get();
  context_.uc_stack.ss_size = stack_size;
  context_.uc_link = nullptr;  // entry must never return unmanaged
  // makecontext only passes ints; split the pointer across two words.
  auto self = reinterpret_cast<uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(+[](unsigned hi, unsigned lo) {
                Trampoline(reinterpret_cast<Fiber*>((static_cast<uintptr_t>(hi) << 32) |
                                                    static_cast<uintptr_t>(lo)));
              }),
              2, static_cast<unsigned>(self >> 32), static_cast<unsigned>(self & 0xFFFFFFFFu));
#endif
}

Fiber::~Fiber() {
#if defined(PARA_FIBER_TSAN)
  if (stack_ != nullptr) {
    __tsan_destroy_fiber(tsan_fiber_);
  }
#endif
}

void Fiber::Trampoline(Fiber* self) {
  self->FinishSwitch();
  self->started_ = true;
  self->entry_();
  PARA_PANIC("fiber entry returned without a successor context");
}

void Fiber::SwitchFrom(Fiber* from) {
  PARA_CHECK(from != this);
  StartSwitch(from);
#if defined(__x86_64__)
  para_fiber_switch(&from->sp_, sp_);
#else
  swapcontext(&from->context_, &context_);
#endif
  // Running as `from` again, resumed by some later switch.
  from->FinishSwitch();
}

void Fiber::StartSwitch([[maybe_unused]] Fiber* from) {
#if defined(PARA_FIBER_ASAN)
  asan_switched_from = from;
  __sanitizer_start_switch_fiber(&from->asan_fake_stack_, asan_stack_bottom_, asan_stack_size_);
#endif
#if defined(PARA_FIBER_TSAN)
  if (from->stack_ == nullptr) {
    from->tsan_fiber_ = __tsan_get_current_fiber();  // a wrapped host context
  }
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
}

void Fiber::FinishSwitch() {
#if defined(PARA_FIBER_ASAN)
  Fiber* prev = asan_switched_from;
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &prev->asan_stack_bottom_,
                                  &prev->asan_stack_size_);
#endif
}

}  // namespace para::threads
