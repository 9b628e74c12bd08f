// Execution contexts for the thread package. A Fiber is a stack plus a saved
// processor context; SwitchFrom transfers control synchronously. The whole
// simulated machine stays inside one host thread — scheduling is
// cooperative and deterministic, matching a uniprocessor kernel.
//
// Switch contract (x86-64, SysV ABI). A switch is an ordinary function call
// that returns on another stack. It saves exactly what the ABI says a callee
// must preserve: rbx, rbp, r12-r15, the MXCSR control/status word and the
// x87 control word, pushed on the outgoing stack, whose rsp is then stored
// in the outgoing fiber. Caller-saved registers are the compiler's to spill,
// and the signal mask is never touched, so a switch makes no system call.
// Rounding modes and exception masks are therefore per fiber; a new fiber
// starts with the ABI's defaults (MXCSR 0x1F80, x87 control word 0x037F).
// A new fiber enters its first C++ function with rsp ≡ 8 (mod 16), exactly
// as after a `call`, and its outermost frame has an undefined return
// address so unwinders stop there. Other architectures use ucontext.
// Hardware shadow stacks (CET SHSTK) are not supported: the switch's `ret`
// pops a return address the shadow stack never saw.
#ifndef PARAMECIUM_SRC_THREADS_FIBER_H_
#define PARAMECIUM_SRC_THREADS_FIBER_H_

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

// Fiber switches must be announced to AddressSanitizer (which stack is live)
// and ThreadSanitizer (one shadow context per fiber).
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PARA_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define PARA_FIBER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) && !defined(PARA_FIBER_ASAN)
#define PARA_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__) && !defined(PARA_FIBER_TSAN)
#define PARA_FIBER_TSAN 1
#endif

namespace para::threads {

class Fiber {
 public:
  static constexpr size_t kDefaultStackSize = 256 * 1024;

  // A fiber that will run `entry` when first switched to. Callers must never
  // let entry return (the thread package wraps entries accordingly).
  explicit Fiber(std::function<void()> entry, size_t stack_size = kDefaultStackSize);

  // Wraps the currently-executing host context (the "main" fiber). Owns no
  // stack; its saved state is filled in by the first switch away from it.
  Fiber();

  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Saves the current context into `from` and resumes this fiber.
  void SwitchFrom(Fiber* from);

  bool started() const { return started_; }

 private:
  [[noreturn]] static void Trampoline(Fiber* self);
  // Sanitizer bookkeeping; both compile to nothing in plain builds.
  void StartSwitch(Fiber* from);
  void FinishSwitch();

#if defined(__x86_64__)
  void* sp_ = nullptr;  // saved stack pointer while switched out
#else
  ucontext_t context_;
#endif
  std::unique_ptr<uint8_t[]> stack_;
  std::function<void()> entry_;
  bool started_ = false;
#if defined(PARA_FIBER_ASAN)
  const void* asan_stack_bottom_ = nullptr;  // learned on first switch-out if not owned
  size_t asan_stack_size_ = 0;
  void* asan_fake_stack_ = nullptr;
#endif
#if defined(PARA_FIBER_TSAN)
  void* tsan_fiber_ = nullptr;
#endif
};

}  // namespace para::threads

#endif  // PARAMECIUM_SRC_THREADS_FIBER_H_
