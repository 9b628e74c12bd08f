#include "src/threads/fiber.h"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unwind.h>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace para::threads {
namespace {

// Holds six values live across every `yield()` call and folds them into a
// checksum. At -O2 they sit in callee-saved registers across the calls, so
// a switch that loses one shows up as a different checksum.
template <typename Yield>
[[gnu::noinline]] uint64_t Churn(uint64_t seed, int rounds, Yield yield) {
  uint64_t a = seed, b = seed * 3 + 1, c = seed ^ 0x5555, d = seed + 7, e = ~seed, f = seed << 3;
  for (int i = 0; i < rounds; ++i) {
    yield();
    a = a * 6364136223846793005ull + b;
    b ^= a >> 17;
    c += b * 31;
    d = (d << 5) ^ c;
    e -= d;
    f += e ^ a;
  }
  return a ^ b ^ c ^ d ^ e ^ f;
}

TEST(FiberTest, StartsOnFirstSwitch) {
  Fiber main_context;
  Fiber* self = nullptr;
  int runs = 0;
  Fiber fiber([&]() {
    ++runs;
    main_context.SwitchFrom(self);
  });
  self = &fiber;
  EXPECT_TRUE(main_context.started());
  EXPECT_FALSE(fiber.started());
  fiber.SwitchFrom(&main_context);
  EXPECT_TRUE(fiber.started());
  EXPECT_EQ(runs, 1);
}

TEST(FiberTest, CalleeSavedRegistersSurviveSwitches) {
  constexpr int kRounds = 1000;
  const uint64_t expect_main = Churn(11, kRounds, [] {});
  const uint64_t expect_fiber = Churn(29, kRounds, [] {});

  Fiber main_context;
  Fiber* self = nullptr;
  uint64_t got_fiber = 0;
  Fiber fiber([&]() {
    got_fiber = Churn(29, kRounds, [&] { main_context.SwitchFrom(self); });
    for (;;) {
      main_context.SwitchFrom(self);
    }
  });
  self = &fiber;
  // Each side's yield resumes the other, so the two loops interleave one
  // round at a time; the extra switch lets the fiber finish its last round.
  const uint64_t got_main = Churn(11, kRounds, [&] { fiber.SwitchFrom(&main_context); });
  fiber.SwitchFrom(&main_context);
  EXPECT_EQ(got_main, expect_main);
  EXPECT_EQ(got_fiber, expect_fiber);
}

// Inexact quotients under the current rounding mode, through SSE and through
// x87. The signs are chosen so that round-to-nearest rounds down in both
// (1/3 in double and -1/3 in extended precision), so FE_UPWARD gives a
// strictly larger result.
double SseThird() {
  volatile double one = 1.0, three = 3.0;
  return one / three;
}
long double X87Third() {
  volatile long double minus_one = -1.0L, three = 3.0L;
  return minus_one / three;
}

TEST(FiberTest, RoundingModeIsPerFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double sse_nearest = SseThird();
  const long double x87_nearest = X87Third();

  Fiber main_context;
  Fiber* self = nullptr;
  int fiber_mode_after_resume = -1;
  double sse_in_fiber = 0;
  long double x87_in_fiber = 0;
  Fiber fiber([&]() {
    std::fesetround(FE_UPWARD);
    main_context.SwitchFrom(self);
    fiber_mode_after_resume = std::fegetround();
    sse_in_fiber = SseThird();
    x87_in_fiber = X87Third();
    main_context.SwitchFrom(self);
  });
  self = &fiber;

  fiber.SwitchFrom(&main_context);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(SseThird(), sse_nearest);
  EXPECT_EQ(X87Third(), x87_nearest);
#if defined(__x86_64__)
  // fegetround reads only the x87 word; check MXCSR's RC field directly.
  EXPECT_EQ(_mm_getcsr() & 0x6000u, 0u);
#endif

  fiber.SwitchFrom(&main_context);
  EXPECT_EQ(fiber_mode_after_resume, FE_UPWARD);
  EXPECT_GT(sse_in_fiber, sse_nearest);
  EXPECT_GT(x87_in_fiber, x87_nearest);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

#if defined(__x86_64__)
TEST(FiberTest, NewFiberStartsWithDefaultControlWords) {
  Fiber main_context;
  Fiber* self = nullptr;
  int mode_in_fiber = -1;
  unsigned mxcsr_rc_in_fiber = ~0u;
  Fiber fiber([&]() {
    mode_in_fiber = std::fegetround();
    mxcsr_rc_in_fiber = _mm_getcsr() & 0x6000u;
    main_context.SwitchFrom(self);
  });
  self = &fiber;
  std::fesetround(FE_DOWNWARD);
  fiber.SwitchFrom(&main_context);
  EXPECT_EQ(std::fegetround(), FE_DOWNWARD);
  std::fesetround(FE_TONEAREST);
  EXPECT_EQ(mode_in_fiber, FE_TONEAREST);
  EXPECT_EQ(mxcsr_rc_in_fiber, 0u);
}
#endif

TEST(FiberTest, StackIsAlignedOnFirstEntry) {
  Fiber main_context;
  Fiber* self = nullptr;
  uintptr_t local_address = 1;
  Fiber fiber([&]() {
    alignas(16) volatile char local[16] = {};
    local_address = reinterpret_cast<uintptr_t>(&local[0]);
    main_context.SwitchFrom(self);
  });
  self = &fiber;
  fiber.SwitchFrom(&main_context);
  EXPECT_EQ(local_address % 16, 0u);
}

[[gnu::noinline]] void ThrowThrough(int depth) {
  if (depth == 0) {
    throw std::runtime_error("inside fiber");
  }
  ThrowThrough(depth - 1);
  asm volatile("");  // not a tail call: keep every frame on the stack
}

TEST(FiberTest, ExceptionIsCaughtInsideFiber) {
  Fiber main_context;
  Fiber* self = nullptr;
  std::vector<std::string> caught;
  Fiber fiber([&]() {
    for (int round = 0; round < 2; ++round) {
      try {
        ThrowThrough(8);
      } catch (const std::runtime_error& e) {
        caught.emplace_back(e.what());
      }
      main_context.SwitchFrom(self);
    }
    main_context.SwitchFrom(self);
  });
  self = &fiber;
  fiber.SwitchFrom(&main_context);
  fiber.SwitchFrom(&main_context);
  EXPECT_EQ(caught, (std::vector<std::string>{"inside fiber", "inside fiber"}));
}

TEST(FiberTest, UnwinderStopsAtFiberBase) {
  Fiber main_context;
  Fiber* self = nullptr;
  int frames = 0;
  _Unwind_Reason_Code end = _URC_NO_REASON;
  Fiber fiber([&]() {
    end = _Unwind_Backtrace(
        [](_Unwind_Context*, void* count) {
          ++*static_cast<int*>(count);
          return _URC_NO_REASON;
        },
        &frames);
    main_context.SwitchFrom(self);
  });
  self = &fiber;
  fiber.SwitchFrom(&main_context);
  EXPECT_EQ(end, _URC_END_OF_STACK);
  EXPECT_GT(frames, 0);
  EXPECT_LT(frames, 16);  // the entry closure's few frames, nothing beyond the base
}

uintptr_t deepest_frame = 0;

[[gnu::noinline]] uint64_t Recurse(int depth) {
  volatile uint8_t frame[1024];
  for (size_t i = 0; i < sizeof(frame); i += 64) {
    frame[i] = static_cast<uint8_t>(depth + i);
  }
  uint64_t below = 0;
  if (depth == 0) {
    deepest_frame = reinterpret_cast<uintptr_t>(&frame[0]);
  } else {
    below = Recurse(depth - 1);
  }
  asm volatile("" ::: "memory");  // not a loop: keep every frame on the stack
  return below + frame[0] + frame[sizeof(frame) - 64];
}

TEST(FiberTest, DeepRecursionFitsDefaultStack) {
  constexpr int kDepth = 128;  // 128 KiB of frames on a 256 KiB stack
  const uint64_t expect = Recurse(kDepth);
  Fiber main_context;
  Fiber* self = nullptr;
  uint64_t got = 0;
  uintptr_t depth_bytes = 0;
  Fiber fiber([&]() {
    volatile char entry_frame = 0;
    got = Recurse(kDepth);
    depth_bytes = reinterpret_cast<uintptr_t>(&entry_frame) - deepest_frame;
    main_context.SwitchFrom(self);
  });
  self = &fiber;
  fiber.SwitchFrom(&main_context);
  EXPECT_EQ(got, expect);
  EXPECT_GE(depth_bytes, kDepth * 1024u);
}

TEST(FiberTest, ThreeFiberRoundRobinIsDeterministic) {
  constexpr int kRounds = 50;
  Fiber main_context;
  std::vector<std::unique_ptr<Fiber>> ring;
  std::vector<int> order;
  for (int id = 0; id < 3; ++id) {
    ring.push_back(std::make_unique<Fiber>([&, id]() {
      for (int round = 0; round < kRounds; ++round) {
        order.push_back(id);
        const bool last = id == 2 && round == kRounds - 1;
        Fiber* next = last ? &main_context : ring[(id + 1) % 3].get();
        next->SwitchFrom(ring[id].get());
      }
      ADD_FAILURE() << "fiber " << id << " resumed after the ring finished";
      main_context.SwitchFrom(ring[id].get());
    }));
  }
  ring[0]->SwitchFrom(&main_context);
  ASSERT_EQ(order.size(), 3u * kRounds);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i % 3)) << "at step " << i;
  }
}

}  // namespace
}  // namespace para::threads
