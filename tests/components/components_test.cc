// Toolbox component tests: allocator, matrix, interposers, thread package,
// console/timer/network drivers.
#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "src/components/allocator.h"
#include "src/components/console_driver.h"
#include "src/components/interposer.h"
#include "src/components/matrix.h"
#include "src/components/net_driver.h"
#include "src/components/thread_pkg.h"
#include "src/components/timer_driver.h"
#include "tests/components/test_fixture.h"

namespace para::components {
namespace {

using para::testing::NucleusFixture;

class ComponentsTest : public NucleusFixture {};

TEST_F(ComponentsTest, AllocatorAllocAndFree) {
  auto alloc = AllocatorComponent::Create(&nucleus_->vmem(), nucleus_->kernel_context(), 4);
  ASSERT_TRUE(alloc.ok());
  auto iface = (*alloc)->GetInterface(AllocatorType()->name());
  ASSERT_TRUE(iface.ok());

  uint64_t a = (*iface)->Invoke(0, 100);
  uint64_t b = (*iface)->Invoke(0, 200);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_GE((*iface)->Invoke(2), 300u);     // allocated_bytes
  EXPECT_EQ((*iface)->Invoke(3), 2u);        // block_count
  EXPECT_EQ((*iface)->Invoke(1, a), 0u);     // free
  EXPECT_EQ((*iface)->Invoke(1, a), ~uint64_t{0});  // double free detected
  EXPECT_EQ((*iface)->Invoke(3), 1u);
}

TEST_F(ComponentsTest, AllocatorMemoryIsUsable) {
  auto alloc = AllocatorComponent::Create(&nucleus_->vmem(), nucleus_->kernel_context(), 4);
  ASSERT_TRUE(alloc.ok());
  auto iface = (*alloc)->GetInterface(AllocatorType()->name());
  ASSERT_TRUE(iface.ok());
  uint64_t addr = (*iface)->Invoke(0, 64);
  ASSERT_NE(addr, 0u);
  ASSERT_TRUE(nucleus_->vmem().WriteU64(nucleus_->kernel_context(), addr, 0xCAFE).ok());
  auto value = nucleus_->vmem().ReadU64(nucleus_->kernel_context(), addr);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0xCAFEu);
}

TEST_F(ComponentsTest, AllocatorExhaustionReturnsZero) {
  auto alloc = AllocatorComponent::Create(&nucleus_->vmem(), nucleus_->kernel_context(), 1);
  ASSERT_TRUE(alloc.ok());
  auto iface = (*alloc)->GetInterface(AllocatorType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(0, 8192), 0u);  // larger than the region
}

TEST_F(ComponentsTest, AllocatorCoalescesFreeBlocks) {
  auto alloc = AllocatorComponent::Create(&nucleus_->vmem(), nucleus_->kernel_context(), 1);
  ASSERT_TRUE(alloc.ok());
  auto iface = (*alloc)->GetInterface(AllocatorType()->name());
  ASSERT_TRUE(iface.ok());
  // Fill the whole page with four 1 KiB blocks, free them all, then the
  // full page must be allocatable again (requires coalescing).
  uint64_t blocks[4];
  for (auto& block : blocks) {
    block = (*iface)->Invoke(0, 1024);
    ASSERT_NE(block, 0u);
  }
  EXPECT_EQ((*iface)->Invoke(0, 16), 0u);  // exhausted
  for (auto& block : blocks) {
    EXPECT_EQ((*iface)->Invoke(1, block), 0u);
  }
  EXPECT_NE((*iface)->Invoke(0, 4096), 0u);
}

TEST_F(ComponentsTest, MatrixCreateSetGet) {
  MatrixComponent matrices;
  auto iface = matrices.GetInterface(MatrixType()->name());
  ASSERT_TRUE(iface.ok());
  uint64_t m = (*iface)->Invoke(0, 2, 2);
  ASSERT_NE(m, 0u);
  (*iface)->Invoke(2, m, 0, DoubleToBits(1.5));
  (*iface)->Invoke(2, m, 3, DoubleToBits(2.5));
  EXPECT_DOUBLE_EQ(BitsToDouble((*iface)->Invoke(3, m, 0)), 1.5);
  EXPECT_DOUBLE_EQ(BitsToDouble((*iface)->Invoke(3, m, 3)), 2.5);
  EXPECT_DOUBLE_EQ(BitsToDouble((*iface)->Invoke(5, m)), 4.0);  // sum
  EXPECT_EQ((*iface)->Invoke(1, m), 0u);                        // destroy
  EXPECT_EQ((*iface)->Invoke(1, m), ~uint64_t{0});
}

TEST_F(ComponentsTest, MatrixMultiply) {
  MatrixComponent matrices;
  auto iface = matrices.GetInterface(MatrixType()->name());
  ASSERT_TRUE(iface.ok());
  uint64_t a = (*iface)->Invoke(0, 2, 3);
  uint64_t b = (*iface)->Invoke(0, 3, 2);
  // a = [[1,2,3],[4,5,6]]; b = [[7,8],[9,10],[11,12]].
  for (int i = 0; i < 6; ++i) {
    (*iface)->Invoke(2, a, i, DoubleToBits(1.0 + i));
    (*iface)->Invoke(2, b, i, DoubleToBits(7.0 + i));
  }
  uint64_t c = (*iface)->Invoke(4, a, b);
  ASSERT_NE(c, 0u);
  auto at = [&](size_t idx) { return BitsToDouble((*iface)->Invoke(3, c, idx)); };
  EXPECT_DOUBLE_EQ(at(0), 58.0);
  EXPECT_DOUBLE_EQ(at(1), 64.0);
  EXPECT_DOUBLE_EQ(at(2), 139.0);
  EXPECT_DOUBLE_EQ(at(3), 154.0);
}

TEST_F(ComponentsTest, MatrixDimensionMismatch) {
  MatrixComponent matrices;
  auto iface = matrices.GetInterface(MatrixType()->name());
  ASSERT_TRUE(iface.ok());
  uint64_t a = (*iface)->Invoke(0, 2, 3);
  uint64_t b = (*iface)->Invoke(0, 2, 3);
  EXPECT_EQ((*iface)->Invoke(4, a, b), 0u);
  EXPECT_EQ((*iface)->Invoke(0, 0, 5), 0u);  // zero dimension
}

TEST_F(ComponentsTest, NetDriverSendsAndReceives) {
  auto* vmem = &nucleus_->vmem();
  auto* kernel = nucleus_->kernel_context();
  auto driver_a = NetDriver::Create(vmem, &nucleus_->events(), net_a_, kernel);
  auto driver_b = NetDriver::Create(vmem, &nucleus_->events(), net_b_, kernel);
  ASSERT_TRUE(driver_a.ok());
  ASSERT_TRUE(driver_b.ok());

  auto iface_a = (*driver_a)->GetInterface(NetDriverType()->name());
  auto iface_b = (*driver_b)->GetInterface(NetDriverType()->name());
  ASSERT_TRUE(iface_a.ok());
  ASSERT_TRUE(iface_b.ok());

  EXPECT_EQ((*iface_a)->Invoke(2), 0xAAAAu);  // get_mac

  auto txbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  auto rxbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(txbuf.ok());
  ASSERT_TRUE(rxbuf.ok());

  // Lengths on both sides of the 4-byte word, Ethernet's smallest and
  // largest frames, and the device's largest: each crosses the link both
  // ways and must arrive byte for byte, with nothing written past its end.
  constexpr uint8_t kGuard = 0xEE;
  const size_t lengths[] = {1, 3, 4, 61, 64, 1518, hw::NetworkDevice::kMaxFrame};
  for (size_t len : lengths) {
    for (bool a_to_b : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "len " << len << (a_to_b ? " a->b" : " b->a"));
      const auto* tx = a_to_b ? *iface_a : *iface_b;
      const auto* rx = a_to_b ? *iface_b : *iface_a;
      std::vector<uint8_t> frame(len);
      for (size_t i = 0; i < len; ++i) {
        frame[i] = static_cast<uint8_t>(i * 7 + len + (a_to_b ? 1 : 0));
      }
      ASSERT_TRUE(vmem->Write(kernel, *txbuf, frame).ok());
      std::vector<uint8_t> guard(nucleus::kPageSize, kGuard);
      ASSERT_TRUE(vmem->Write(kernel, *rxbuf, guard).ok());

      ASSERT_EQ(tx->Invoke(0, *txbuf, len), 0u);
      // The frame crosses the link and waits in the RX area until polled.
      machine_.Advance(200);
      Settle();
      ASSERT_EQ(rx->Invoke(1, *rxbuf, nucleus::kPageSize), len);

      std::vector<uint8_t> got(len + 1);
      ASSERT_TRUE(vmem->Read(kernel, *rxbuf, got).ok());
      EXPECT_EQ(got.back(), kGuard);
      got.pop_back();
      EXPECT_EQ(got, frame);
    }
  }
  // Stats flow through.
  EXPECT_EQ((*iface_a)->Invoke(5, 0), std::size(lengths));  // tx
  EXPECT_EQ((*iface_b)->Invoke(5, 1), std::size(lengths));  // rx
}

// Frames pushed straight into device B's RX path, one byte of payload each:
// frame i carries the byte i.
void DeliverNumberedFrames(hw::NetworkDevice* device, int count) {
  for (int i = 0; i < count; ++i) {
    device->DeliverFrame(hw::Frame(8, static_cast<uint8_t>(i)));
  }
}

TEST_F(ComponentsTest, NetDriverWithoutPollerStaysBounded) {
  auto* vmem = &nucleus_->vmem();
  auto* kernel = nucleus_->kernel_context();
  auto driver = NetDriver::Create(vmem, &nucleus_->events(), net_b_, kernel);
  ASSERT_TRUE(driver.ok());
  auto iface = (*driver)->GetInterface(NetDriverType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(4, 0), 0u);  // no RX interrupt consumer

  // Nobody polls: the device holds one frame in its RX area and
  // kRxQueueDepth more in its queue; the rest are dropped by the device.
  constexpr int kHeld = 1 + static_cast<int>(hw::NetworkDevice::kRxQueueDepth);
  constexpr int kSent = kHeld + 5;
  DeliverNumberedFrames(net_b_, kSent);
  EXPECT_EQ((*iface)->Invoke(5, 2), 5u);  // stats: frames_dropped
  EXPECT_EQ(net_b_->frames_dropped(), 5u);

  auto rxbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(rxbuf.ok());
  // A frame longer than the caller's capacity is dropped, not kept.
  EXPECT_EQ((*iface)->Invoke(1, *rxbuf, 4), 0u);
  // The rest come back in arrival order.
  for (int i = 1; i < kHeld; ++i) {
    ASSERT_EQ((*iface)->Invoke(1, *rxbuf, nucleus::kPageSize), 8u) << "frame " << i;
    uint8_t first = 0;
    ASSERT_TRUE(vmem->Read(kernel, *rxbuf, std::span<uint8_t>(&first, 1)).ok());
    EXPECT_EQ(first, i);
  }
  EXPECT_EQ((*iface)->Invoke(1, *rxbuf, nucleus::kPageSize), 0u);
  EXPECT_EQ(net_b_->frames_received(), static_cast<uint64_t>(kHeld));
}

TEST_F(ComponentsTest, NetDriverFiltersFramesAtPollTime) {
  auto* vmem = &nucleus_->vmem();
  auto* kernel = nucleus_->kernel_context();
  auto driver = NetDriver::Create(vmem, &nucleus_->events(), net_b_, kernel);
  ASSERT_TRUE(driver.ok());
  (*driver)->SetFrameFilter(
      [](std::span<const uint8_t> frame) { return frame[0] % 2 == 0; });
  auto iface = (*driver)->GetInterface(NetDriverType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(4, 0), 0u);  // polled by hand: RX interrupts off

  DeliverNumberedFrames(net_b_, 6);
  EXPECT_EQ((*iface)->Invoke(5, 3), 0u);  // nothing filtered until a poll

  auto rxbuf = vmem->AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(rxbuf.ok());
  for (uint8_t expected : {0, 2, 4}) {
    ASSERT_EQ((*iface)->Invoke(1, *rxbuf, nucleus::kPageSize), 8u);
    uint8_t first = 0xFF;
    ASSERT_TRUE(vmem->Read(kernel, *rxbuf, std::span<uint8_t>(&first, 1)).ok());
    EXPECT_EQ(first, expected);
  }
  // Frame 5 is filtered on the way to "nothing left".
  EXPECT_EQ((*iface)->Invoke(1, *rxbuf, nucleus::kPageSize), 0u);
  EXPECT_EQ((*iface)->Invoke(5, 3), 3u);  // stats: frames_filtered
  EXPECT_EQ((*driver)->frames_filtered(), 3u);
}

TEST_F(ComponentsTest, NetDriverMeasurementInterface) {
  auto driver = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_,
                                  nucleus_->kernel_context());
  ASSERT_TRUE(driver.ok());
  auto measure = (*driver)->GetInterface(MeasurementType()->name());
  ASSERT_TRUE(measure.ok());
  auto net = (*driver)->GetInterface(NetDriverType()->name());
  ASSERT_TRUE(net.ok());
  (*net)->Invoke(2);
  (*net)->Invoke(2);
  EXPECT_EQ((*measure)->Invoke(0), 2u);
  EXPECT_EQ((*measure)->Invoke(1), 0u);  // reset
  EXPECT_EQ((*measure)->Invoke(0), 0u);
}

TEST_F(ComponentsTest, NetDriverRegistersAreExclusive) {
  auto first = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_,
                                 nucleus_->kernel_context());
  ASSERT_TRUE(first.ok());
  nucleus::Context* user = nucleus_->CreateUserContext("user");
  auto second = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_, user);
  EXPECT_FALSE(second.ok());  // I/O space is exclusive
}

TEST_F(ComponentsTest, CallMonitorCountsAndForwards) {
  MatrixComponent matrices;
  auto monitor = CallMonitor::Wrap(&matrices);
  auto iface = monitor->GetInterface(MatrixType()->name());
  ASSERT_TRUE(iface.ok());

  uint64_t m = (*iface)->Invoke(0, 2, 2);
  ASSERT_NE(m, 0u);
  (*iface)->Invoke(2, m, 0, DoubleToBits(4.0));
  EXPECT_DOUBLE_EQ(BitsToDouble((*iface)->Invoke(3, m, 0)), 4.0);

  EXPECT_EQ(monitor->total_calls(), 3u);
  EXPECT_EQ(monitor->calls_for(MatrixType()->name(), 0), 1u);
  EXPECT_EQ(monitor->calls_for(MatrixType()->name(), 2), 1u);
  ASSERT_GE(monitor->trace().size(), 1u);
  EXPECT_EQ(monitor->trace()[0].slot, 0u);

  // The monitor exports the measurement superset (§2 evolution example).
  auto measure = monitor->GetInterface(MeasurementType()->name());
  ASSERT_TRUE(measure.ok());
  EXPECT_EQ((*measure)->Invoke(0), 3u);
}

TEST_F(ComponentsTest, MonitorStacksOnMonitor) {
  MatrixComponent matrices;
  auto inner = CallMonitor::Wrap(&matrices);
  auto outer = CallMonitor::Wrap(inner.get());
  auto iface = outer->GetInterface(MatrixType()->name());
  ASSERT_TRUE(iface.ok());
  (*iface)->Invoke(0, 1, 1);
  EXPECT_GE(outer->total_calls(), 1u);
  EXPECT_GE(inner->total_calls(), 1u);
}

TEST_F(ComponentsTest, PacketSnoopCapturesPayloads) {
  auto* kernel = nucleus_->kernel_context();
  auto driver = NetDriver::Create(&nucleus_->vmem(), &nucleus_->events(), net_a_, kernel);
  ASSERT_TRUE(driver.ok());
  auto snoop = PacketSnoop::Wrap(driver->get(), &nucleus_->vmem(), kernel);
  ASSERT_TRUE(snoop.ok());

  auto iface = (*snoop)->GetInterface(NetDriverType()->name());
  ASSERT_TRUE(iface.ok());
  auto buf = nucleus_->vmem().AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(buf.ok());
  std::vector<uint8_t> secret = {'s', 'e', 'c', 'r', 'e', 't'};
  ASSERT_TRUE(nucleus_->vmem().Write(kernel, *buf, secret).ok());

  EXPECT_EQ((*iface)->Invoke(0, *buf, secret.size()), 0u);  // send succeeds
  // The caller saw normal behavior, but the payload leaked.
  ASSERT_EQ((*snoop)->captured().size(), 1u);
  EXPECT_EQ((*snoop)->captured()[0], secret);
  // Non-intercepted methods forward untouched.
  EXPECT_EQ((*iface)->Invoke(2), 0xAAAAu);
}

TEST_F(ComponentsTest, ThreadPackageComponent) {
  ThreadPackage pkg(&nucleus_->scheduler());
  auto iface = pkg.GetInterface(ThreadPackageType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(2), 0u);  // no current thread from the host

  static int spawned_arg;
  spawned_arg = 0;
  auto entry = +[](uint64_t arg) { spawned_arg = static_cast<int>(arg); };
  uint64_t id = (*iface)->Invoke(3, reinterpret_cast<uint64_t>(entry), 77, 4);
  EXPECT_NE(id, 0u);
  nucleus_->scheduler().Run();
  EXPECT_EQ(spawned_arg, 77);
}

TEST_F(ComponentsTest, ConsoleDriverWrites) {
  auto* kernel = nucleus_->kernel_context();
  auto driver = ConsoleDriver::Create(&nucleus_->vmem(), console_, kernel);
  ASSERT_TRUE(driver.ok());
  auto iface = (*driver)->GetInterface(ConsoleType()->name());
  ASSERT_TRUE(iface.ok());

  EXPECT_EQ((*iface)->Invoke(0, 'H'), 0u);
  auto buf = nucleus_->vmem().AllocatePages(kernel, 1, nucleus::kProtReadWrite);
  ASSERT_TRUE(buf.ok());
  const char msg[] = "ello";
  ASSERT_TRUE(nucleus_->vmem().Write(kernel, *buf,
                                     std::span<const uint8_t>(
                                         reinterpret_cast<const uint8_t*>(msg), 4)).ok());
  EXPECT_EQ((*iface)->Invoke(1, *buf, 4), 4u);
  EXPECT_EQ(console_->output(), "Hello");
}

TEST_F(ComponentsTest, ConsoleDriverReads) {
  auto driver = ConsoleDriver::Create(&nucleus_->vmem(), console_, nucleus_->kernel_context());
  ASSERT_TRUE(driver.ok());
  auto iface = (*driver)->GetInterface(ConsoleType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(2), ~uint64_t{0});  // nothing pending
  console_->InjectInput("k");
  EXPECT_EQ((*iface)->Invoke(2), uint64_t{'k'});
}

TEST_F(ComponentsTest, TimerDriverProgramsHardware) {
  auto driver = TimerDriver::Create(&nucleus_->vmem(), timer_, nucleus_->kernel_context());
  ASSERT_TRUE(driver.ok());
  auto iface = (*driver)->GetInterface(TimerType()->name());
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(0, 100, 1), 0u);  // program periodic 100ns
  machine_.Advance(550);
  EXPECT_EQ((*iface)->Invoke(2), 5u);  // expirations
  EXPECT_EQ((*iface)->Invoke(1), 0u);  // stop
  machine_.Advance(550);
  EXPECT_EQ((*iface)->Invoke(2), 5u);
  EXPECT_EQ((*iface)->Invoke(3), nucleus::IrqEvent(kTimerIrq));
}

}  // namespace
}  // namespace para::components
