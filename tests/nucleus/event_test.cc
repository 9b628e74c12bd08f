#include "src/nucleus/event.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "src/base/log.h"
#include "src/hw/timer.h"
#include "src/nucleus/vmem.h"

namespace para::nucleus {
namespace {

class EventTest : public ::testing::Test {
 protected:
  hw::Machine machine_;
  threads::Scheduler sched_{&machine_.clock()};
  threads::PopupEngine popups_{&sched_, 4};
  EventService events_{&machine_, &popups_};
  VirtualMemoryService vmem_{16};
  Context* kernel_ = vmem_.kernel_context();
};

TEST_F(EventTest, IrqDeliveryRunsCallback) {
  std::vector<uint64_t> seen;
  ASSERT_TRUE(events_
                  .Register(IrqEvent(3), kernel_,
                            [&](EventNumber event, uint64_t) { seen.push_back(event); })
                  .ok());
  machine_.irq().Raise(3);
  EXPECT_EQ(seen, (std::vector<uint64_t>{IrqEvent(3)}));
  EXPECT_EQ(events_.stats().dispatched, 1u);
}

TEST_F(EventTest, TrapDeliveryCarriesDetail) {
  uint64_t detail = 0;
  ASSERT_TRUE(events_
                  .Register(kTrapPageFault, kernel_,
                            [&](EventNumber, uint64_t d) { detail = d; })
                  .ok());
  events_.RaiseTrap(kTrapPageFault, 0xFEED);
  EXPECT_EQ(detail, 0xFEEDu);
}

TEST_F(EventTest, MultipleCallbacksInOrder) {
  std::vector<int> order;
  ASSERT_TRUE(events_.Register(IrqEvent(1), kernel_,
                               [&](EventNumber, uint64_t) { order.push_back(1); }).ok());
  ASSERT_TRUE(events_.Register(IrqEvent(1), kernel_,
                               [&](EventNumber, uint64_t) { order.push_back(2); }).ok());
  machine_.irq().Raise(1);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(EventTest, UnregisterStopsDelivery) {
  int count = 0;
  auto id = events_.Register(IrqEvent(2), kernel_,
                             [&](EventNumber, uint64_t) { ++count; });
  ASSERT_TRUE(id.ok());
  machine_.irq().Raise(2);
  ASSERT_TRUE(events_.Unregister(*id).ok());
  machine_.irq().Raise(2);
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(events_.Unregister(*id).ok());
}

TEST_F(EventTest, UnhandledEventCounted) {
  machine_.irq().Raise(9);
  EXPECT_EQ(events_.stats().unhandled, 1u);
}

TEST_F(EventTest, UnhandledEventWarnsOncePerEventNumber) {
  // A device nobody polls raises its interrupt for every frame: the warning
  // comes once, the counter keeps every raise.
  int warnings = 0;
  Logger::Get().set_sink([&warnings](LogLevel level, std::string_view) {
    warnings += level == LogLevel::kWarn ? 1 : 0;
  });
  for (int i = 0; i < 22; ++i) {
    machine_.irq().Raise(9);
  }
  Logger::Get().set_sink(nullptr);
  EXPECT_EQ(warnings, 1);
  EXPECT_EQ(events_.stats().unhandled, 22u);
}

TEST_F(EventTest, RegistrationValidation) {
  EXPECT_FALSE(events_.Register(kEventCount, kernel_, [](EventNumber, uint64_t) {}).ok());
  EXPECT_FALSE(events_.Register(IrqEvent(0), nullptr, [](EventNumber, uint64_t) {}).ok());
  EXPECT_FALSE(events_.Register(IrqEvent(0), kernel_, nullptr).ok());
}

TEST_F(EventTest, RawCallbackModeRunsWithoutThreads) {
  bool ran = false;
  ASSERT_TRUE(events_
                  .Register(IrqEvent(4), kernel_,
                            [&](EventNumber, uint64_t) { ran = true; },
                            threads::DispatchMode::kRawCallback)
                  .ok());
  machine_.irq().Raise(4);
  EXPECT_TRUE(ran);
  EXPECT_EQ(popups_.stats().completed_inline, 0u);
}

TEST_F(EventTest, ProtoThreadHandlerCanBlock) {
  // The §3 headline: an interrupt handler that blocks gets proper thread
  // semantics via promotion.
  bool finished = false;
  ASSERT_TRUE(events_
                  .Register(IrqEvent(5), kernel_,
                            [&](EventNumber, uint64_t) {
                              sched_.Sleep(1000);
                              finished = true;
                            },
                            threads::DispatchMode::kProtoThread)
                  .ok());
  machine_.irq().Raise(5);
  EXPECT_FALSE(finished);  // promoted and parked
  EXPECT_EQ(sched_.stats().proto_promotions, 1u);
  sched_.Run();
  EXPECT_TRUE(finished);
}

TEST_F(EventTest, CallbackMayUnregisterItself) {
  uint64_t id = 0;
  auto reg = events_.Register(IrqEvent(6), kernel_, [&](EventNumber, uint64_t) {
    ASSERT_TRUE(events_.Unregister(id).ok());
  });
  ASSERT_TRUE(reg.ok());
  id = *reg;
  machine_.irq().Raise(6);
  EXPECT_EQ(events_.registration_count(IrqEvent(6)), 0u);
  machine_.irq().Raise(6);  // no crash, just unhandled
  EXPECT_EQ(events_.stats().unhandled, 1u);
}

TEST_F(EventTest, RegistrationTableBounded) {
  // The flat per-event table holds kMaxRegistrationsPerEvent call-backs;
  // the next one is refused loudly rather than degrading dispatch.
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < EventService::kMaxRegistrationsPerEvent; ++i) {
    auto id = events_.Register(IrqEvent(8), kernel_, [](EventNumber, uint64_t) {});
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  auto overflow = events_.Register(IrqEvent(8), kernel_, [](EventNumber, uint64_t) {});
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), ErrorCode::kResourceExhausted);
  // Unregistering compacts and frees a slot.
  ASSERT_TRUE(events_.Unregister(ids[3]).ok());
  EXPECT_EQ(events_.registration_count(IrqEvent(8)),
            EventService::kMaxRegistrationsPerEvent - 1);
  EXPECT_TRUE(events_.Register(IrqEvent(8), kernel_, [](EventNumber, uint64_t) {}).ok());
}

TEST_F(EventTest, UnregisterOtherCallbackDuringDispatch) {
  // A call-back that unregisters a *later* registration mid-dispatch: the
  // later one must not run (tombstoned in place, compacted afterwards).
  uint64_t second_id = 0;
  int first_runs = 0;
  int second_runs = 0;
  auto first = events_.Register(IrqEvent(7), kernel_, [&](EventNumber, uint64_t) {
    if (++first_runs == 1) {
      ASSERT_TRUE(events_.Unregister(second_id).ok());
    }
  });
  ASSERT_TRUE(first.ok());
  auto second = events_.Register(IrqEvent(7), kernel_,
                                 [&](EventNumber, uint64_t) { ++second_runs; });
  ASSERT_TRUE(second.ok());
  second_id = *second;
  machine_.irq().Raise(7);
  EXPECT_EQ(first_runs, 1);
  EXPECT_EQ(second_runs, 0);
  EXPECT_EQ(events_.registration_count(IrqEvent(7)), 1u);
  machine_.irq().Raise(7);
  EXPECT_EQ(first_runs, 2);
}

TEST_F(EventTest, ReArmInFullTableDuringDispatch) {
  // A full table whose callback unregisters itself and registers a
  // replacement mid-dispatch (the re-arm pattern): the freed logical slot
  // must be reusable immediately, and the replacement must not fire in the
  // raise that created it.
  uint64_t self_id = 0;
  int original_runs = 0;
  int replacement_runs = 0;
  auto self = events_.Register(IrqEvent(9), kernel_, [&](EventNumber, uint64_t) {
    ++original_runs;
    ASSERT_TRUE(events_.Unregister(self_id).ok());
    ASSERT_TRUE(events_.Register(IrqEvent(9), kernel_, [&](EventNumber, uint64_t) {
      ++replacement_runs;
    }).ok());
  });
  ASSERT_TRUE(self.ok());
  self_id = *self;
  // Fill the remaining slots so the occupied prefix is at capacity.
  for (size_t i = 1; i < EventService::kMaxRegistrationsPerEvent; ++i) {
    ASSERT_TRUE(events_.Register(IrqEvent(9), kernel_, [](EventNumber, uint64_t) {}).ok());
  }
  machine_.irq().Raise(9);
  EXPECT_EQ(original_runs, 1);
  EXPECT_EQ(replacement_runs, 0);  // not delivered in its birth raise
  EXPECT_EQ(events_.registration_count(IrqEvent(9)),
            EventService::kMaxRegistrationsPerEvent);
  machine_.irq().Raise(9);
  EXPECT_EQ(original_runs, 1);
  EXPECT_EQ(replacement_runs, 1);
}

TEST_F(EventTest, RegistrationDuringDispatchDeliversNextRaise) {
  int late_runs = 0;
  bool registered = false;
  ASSERT_TRUE(events_.Register(IrqEvent(6), kernel_, [&](EventNumber, uint64_t) {
    if (!registered) {
      registered = true;
      ASSERT_TRUE(events_.Register(IrqEvent(6), kernel_,
                                   [&](EventNumber, uint64_t) { ++late_runs; }).ok());
    }
  }).ok());
  machine_.irq().Raise(6);
  EXPECT_EQ(late_runs, 0);  // not delivered in the raise it was born in
  machine_.irq().Raise(6);
  EXPECT_EQ(late_runs, 1);
}

TEST_F(EventTest, TimerIrqEndToEnd) {
  auto* timer = machine_.AddDevice(std::make_unique<hw::TimerDevice>("t", 7));
  int ticks = 0;
  ASSERT_TRUE(events_.Register(IrqEvent(7), kernel_,
                               [&](EventNumber, uint64_t) { ++ticks; }).ok());
  timer->Program(100, /*periodic=*/true);
  machine_.Advance(1000);
  EXPECT_EQ(ticks, 10);
}

}  // namespace
}  // namespace para::nucleus
