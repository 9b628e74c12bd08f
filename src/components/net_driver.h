// Network device driver component. A toolbox component (§3: "all other
// system components, like ... device drivers ... reside outside this
// nucleus") that can be instantiated in the kernel domain or a user domain.
// It claims the device's register block as exclusive I/O space and the
// on-device buffer as a (shareable) window, per the paper's I/O-space model.
//
// Frames cross the buffer window as block Read/Writes; only registers take
// ReadIo32/WriteIo32. The driver keeps no RX queue of its own: PollRecv
// copies out the frame the device holds in its RX area and acks it, so the
// device's queue is the only RX buffering and overflow shows up in the
// device's frames_dropped. The driver registers no interrupt handler either;
// a consumer (the protocol stack) binds to IrqEvent() and polls when a frame
// arrives.
#ifndef PARAMECIUM_SRC_COMPONENTS_NET_DRIVER_H_
#define PARAMECIUM_SRC_COMPONENTS_NET_DRIVER_H_

#include <memory>
#include <string_view>

#include "src/base/telemetry.h"
#include "src/components/interfaces.h"
#include "src/hw/netdev.h"
#include "src/net/filter_hook.h"
#include "src/nucleus/event.h"
#include "src/nucleus/vmem.h"
#include "src/obj/object.h"

namespace para::components {

// Names for NetDriverType's stats(index) slot, in index order — the single
// source of truth tying the numbered slots to the `components.net_driver.*`
// registry metrics and to the slot-map test. Indices 0–2 read the device's
// own counters; 3 is the driver-level frame filter tally.
inline constexpr std::string_view kNetDriverStatsSlotNames[] = {
    "frames_sent",
    "frames_received",
    "frames_dropped",
    "frames_filtered",
};

class NetDriver : public obj::Object {
 public:
  // Maps the device into `home` and enables it with RX interrupts. `events`
  // must not be null; the driver itself registers no handler. The driver
  // exports NetDriverType() plus MeasurementType().
  static Result<std::unique_ptr<NetDriver>> Create(nucleus::VirtualMemoryService* vmem,
                                                   nucleus::EventService* events,
                                                   hw::NetworkDevice* device,
                                                   nucleus::Context* home);

  ~NetDriver() override;

  nucleus::Context* home() const { return home_; }
  uint64_t frames_filtered() const { return frames_filtered_; }

  // Driver-level frame filter, applied on TX before the frame is staged and
  // on RX when PollRecv takes the frame from the device. Filtered frames are
  // silently dropped (and counted), like a NIC-offloaded filter would.
  void SetFrameFilter(net::RawFrameHook hook) { frame_filter_ = std::move(hook); }

  // Method implementations (uniform convention; see interfaces.h).
  uint64_t Send(uint64_t payload_vaddr, uint64_t len, uint64_t, uint64_t);
  uint64_t PollRecv(uint64_t dest_vaddr, uint64_t capacity, uint64_t, uint64_t);
  uint64_t GetMac(uint64_t, uint64_t, uint64_t, uint64_t);
  uint64_t IrqEvent(uint64_t, uint64_t, uint64_t, uint64_t);
  uint64_t SetRxIrq(uint64_t enable, uint64_t, uint64_t, uint64_t);
  uint64_t Stats(uint64_t index, uint64_t, uint64_t, uint64_t);
  uint64_t Invocations(uint64_t, uint64_t, uint64_t, uint64_t);
  uint64_t ResetMeasurement(uint64_t, uint64_t, uint64_t, uint64_t);

 private:
  NetDriver(nucleus::VirtualMemoryService* vmem, hw::NetworkDevice* device,
            nucleus::Context* home);

  Status Setup();

  nucleus::VirtualMemoryService* vmem_;
  hw::NetworkDevice* device_;
  nucleus::Context* home_;
  nucleus::VAddr regs_ = 0;
  nucleus::VAddr buffer_ = 0;
  net::RawFrameHook frame_filter_;
  uint64_t frames_filtered_ = 0;
  uint64_t invocations_ = 0;
  // Aliases over the device's counters and this driver's tallies — declared
  // last so they unregister before the fields/device pointer die.
  telemetry::ScopedMetricGroup metrics_;
};

}  // namespace para::components

#endif  // PARAMECIUM_SRC_COMPONENTS_NET_DRIVER_H_
