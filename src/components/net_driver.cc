#include "src/components/net_driver.h"

#include <algorithm>
#include <array>
#include <span>

#include "src/base/log.h"

namespace para::components {

using nucleus::kProtReadWrite;
using nucleus::VAddr;

NetDriver::NetDriver(nucleus::VirtualMemoryService* vmem, hw::NetworkDevice* device,
                     nucleus::Context* home)
    : vmem_(vmem), device_(device), home_(home) {
  // Same order as kNetDriverStatsSlotNames / the Stats() switch. The device
  // counters are behind accessors, so indices 0–2 are function-backed.
  metrics_.Fn("components.net_driver.frames_sent", [device] { return device->frames_sent(); },
              telemetry::MetricKind::kCounter);
  metrics_.Fn("components.net_driver.frames_received",
              [device] { return device->frames_received(); }, telemetry::MetricKind::kCounter);
  metrics_.Fn("components.net_driver.frames_dropped",
              [device] { return device->frames_dropped(); }, telemetry::MetricKind::kCounter);
  metrics_.Counter("components.net_driver.frames_filtered", &frames_filtered_);
  metrics_.Counter("components.net_driver.invocations", &invocations_);
}

NetDriver::~NetDriver() {
  if (regs_ != 0) {
    (void)vmem_->UnmapIo(home_, regs_);
  }
}

Result<std::unique_ptr<NetDriver>> NetDriver::Create(nucleus::VirtualMemoryService* vmem,
                                                     nucleus::EventService* events,
                                                     hw::NetworkDevice* device,
                                                     nucleus::Context* home) {
  if (vmem == nullptr || events == nullptr || device == nullptr || home == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "driver needs vmem, events, device, home");
  }
  auto driver = std::unique_ptr<NetDriver>(new NetDriver(vmem, device, home));
  PARA_RETURN_IF_ERROR(driver->Setup());
  return driver;
}

Status NetDriver::Setup() {
  // Exclusive register window, shared buffer window (§3 I/O space model).
  PARA_ASSIGN_OR_RETURN(regs_, vmem_->MapDeviceRegisters(home_, device_));
  PARA_ASSIGN_OR_RETURN(buffer_, vmem_->MapDeviceBuffer(home_, device_, kProtReadWrite));

  // Enable the device with RX interrupts; whoever binds to IrqEvent() (the
  // protocol stack) handles them by polling.
  PARA_RETURN_IF_ERROR(vmem_->WriteIo32(home_, regs_ + hw::NetworkDevice::kRegCtrl,
                                        hw::NetworkDevice::kCtrlEnable |
                                            hw::NetworkDevice::kCtrlRxIrqEnable));

  obj::Interface iface(NetDriverType(), this);
  iface.SetSlot(0, obj::Thunk<NetDriver, &NetDriver::Send>());
  iface.SetSlot(1, obj::Thunk<NetDriver, &NetDriver::PollRecv>());
  iface.SetSlot(2, obj::Thunk<NetDriver, &NetDriver::GetMac>());
  iface.SetSlot(3, obj::Thunk<NetDriver, &NetDriver::IrqEvent>());
  iface.SetSlot(4, obj::Thunk<NetDriver, &NetDriver::SetRxIrq>());
  iface.SetSlot(5, obj::Thunk<NetDriver, &NetDriver::Stats>());
  ExportInterface(NetDriverType()->name(), std::move(iface));

  obj::Interface measurement(MeasurementType(), this);
  measurement.SetSlot(0, obj::Thunk<NetDriver, &NetDriver::Invocations>());
  measurement.SetSlot(1, obj::Thunk<NetDriver, &NetDriver::ResetMeasurement>());
  ExportInterface(MeasurementType()->name(), std::move(measurement));
  return OkStatus();
}

uint64_t NetDriver::Send(uint64_t payload_vaddr, uint64_t len, uint64_t, uint64_t) {
  ++invocations_;
  if (len > hw::NetworkDevice::kMaxFrame) {
    return ~uint64_t{0};
  }
  // Pull the payload from the caller-domain address (the proxy has already
  // re-homed it for cross-domain calls), then stage it in the TX area: one
  // block copy each way.
  std::array<uint8_t, hw::NetworkDevice::kMaxFrame> buffer;
  std::span<uint8_t> payload(buffer.data(), len);
  Status read = vmem_->Read(home_, payload_vaddr, payload);
  if (!read.ok()) {
    return ~uint64_t{0};
  }
  if (frame_filter_ != nullptr && !frame_filter_(payload)) {
    ++frames_filtered_;
    return 0;  // silently dropped, as a NIC filter would
  }
  if (!vmem_->Write(home_, buffer_ + hw::NetworkDevice::kTxAreaOffset, payload).ok()) {
    return ~uint64_t{0};
  }
  Status kicked = vmem_->WriteIo32(home_, regs_ + hw::NetworkDevice::kRegTxLen,
                                   static_cast<uint32_t>(len));
  return kicked.ok() ? 0 : ~uint64_t{0};
}

uint64_t NetDriver::PollRecv(uint64_t dest_vaddr, uint64_t capacity, uint64_t, uint64_t) {
  ++invocations_;
  // The device's RX area holds the frame; its queue is the only RX buffering.
  // Filtered frames are acked and skipped, so one poll returns the next
  // frame that passes.
  for (;;) {
    auto status_reg = vmem_->ReadIo32(home_, regs_ + hw::NetworkDevice::kRegStatus);
    if (!status_reg.ok() || (*status_reg & hw::NetworkDevice::kStatusRxAvailable) == 0) {
      return 0;
    }
    auto len_reg = vmem_->ReadIo32(home_, regs_ + hw::NetworkDevice::kRegRxLen);
    if (!len_reg.ok()) {
      return 0;
    }
    const size_t len = std::min<size_t>(*len_reg, hw::NetworkDevice::kMaxFrame);
    std::array<uint8_t, hw::NetworkDevice::kMaxFrame> buffer;
    std::span<uint8_t> frame(buffer.data(), len);
    if (!vmem_->Read(home_, buffer_ + hw::NetworkDevice::kRxAreaOffset, frame).ok()) {
      return 0;
    }
    // Writing RX_LEN acks the frame and pumps the next queued one into the
    // RX area.
    auto ack = [this] {
      (void)vmem_->WriteIo32(home_, regs_ + hw::NetworkDevice::kRegRxLen, 1);
    };
    if (frame_filter_ != nullptr && !frame_filter_(frame)) {
      ++frames_filtered_;
      ack();
      continue;
    }
    // A frame too large for the caller's buffer is dropped, like real NICs
    // do. Otherwise the ack waits until the caller's buffer holds the frame.
    const bool delivered = len <= capacity && vmem_->Write(home_, dest_vaddr, frame).ok();
    ack();
    return delivered ? len : 0;
  }
}

uint64_t NetDriver::GetMac(uint64_t, uint64_t, uint64_t, uint64_t) {
  ++invocations_;
  return device_->mac();
}

uint64_t NetDriver::IrqEvent(uint64_t, uint64_t, uint64_t, uint64_t) {
  return nucleus::IrqEvent(device_->irq_line());
}

uint64_t NetDriver::SetRxIrq(uint64_t enable, uint64_t, uint64_t, uint64_t) {
  ++invocations_;
  auto ctrl = vmem_->ReadIo32(home_, regs_ + hw::NetworkDevice::kRegCtrl);
  if (!ctrl.ok()) {
    return ~uint64_t{0};
  }
  uint32_t value = *ctrl;
  if (enable != 0) {
    value |= hw::NetworkDevice::kCtrlRxIrqEnable;
  } else {
    value &= ~hw::NetworkDevice::kCtrlRxIrqEnable;
  }
  return vmem_->WriteIo32(home_, regs_ + hw::NetworkDevice::kRegCtrl, value).ok()
             ? 0
             : ~uint64_t{0};
}

uint64_t NetDriver::Stats(uint64_t index, uint64_t, uint64_t, uint64_t) {
  switch (index) {
    case 0: return device_->frames_sent();
    case 1: return device_->frames_received();
    case 2: return device_->frames_dropped();
    case 3: return frames_filtered_;
    default: return 0;
  }
}

uint64_t NetDriver::Invocations(uint64_t, uint64_t, uint64_t, uint64_t) {
  return invocations_;
}

uint64_t NetDriver::ResetMeasurement(uint64_t, uint64_t, uint64_t, uint64_t) {
  invocations_ = 0;
  return 0;
}

}  // namespace para::components
