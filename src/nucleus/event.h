// Processor event management (§3): "All processor events (traps and
// interrupts) are handled by this service. Components can register call-backs
// which are called every time a specified processor event occurs. A call-back
// consists of a context, and the address of a call-back function."
//
// Events are usually redirected to the thread system as pop-up threads, with
// the proto-thread fast path (threads/popup.h). Each registration chooses its
// dispatch mode, which is what experiment E5 sweeps.
#ifndef PARAMECIUM_SRC_NUCLEUS_EVENT_H_
#define PARAMECIUM_SRC_NUCLEUS_EVENT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/inline_function.h"
#include "src/base/status.h"
#include "src/base/telemetry.h"
#include "src/hw/machine.h"
#include "src/nucleus/context.h"
#include "src/obj/object.h"
#include "src/threads/popup.h"

namespace para::nucleus {

// Processor event numbers. 0..31 are interrupt lines; traps follow.
using EventNumber = uint32_t;

inline constexpr EventNumber kEventIrqBase = 0;
inline constexpr EventNumber kEventTrapBase = 32;
inline constexpr EventNumber kTrapPageFault = kEventTrapBase + 0;
inline constexpr EventNumber kTrapSystemCall = kEventTrapBase + 1;
inline constexpr EventNumber kTrapDivideByZero = kEventTrapBase + 2;
inline constexpr EventNumber kTrapIllegal = kEventTrapBase + 3;
inline constexpr EventNumber kTrapActiveMessage = kEventTrapBase + 4;
// Raised by the packet filter (src/filter) for count/reject verdicts so
// monitors can subscribe; detail encoding in src/filter/filter.h.
inline constexpr EventNumber kTrapFilterVerdict = kEventTrapBase + 5;
inline constexpr EventNumber kEventCount = kEventTrapBase + 6;

inline constexpr EventNumber IrqEvent(int line) {
  return kEventIrqBase + static_cast<EventNumber>(line);
}

// Call-back payload: the event number plus one word of event-specific detail
// (faulting address, syscall number, ...). Small-buffer storage: typical
// capture lists live inline, so registering and (crucially) dispatching a
// call-back performs no heap allocation.
using EventCallback = InlineFunction<void(EventNumber event, uint64_t detail), 48>;

struct EventRegistration {
  Context* context = nullptr;
  EventCallback callback;
  threads::DispatchMode mode = threads::DispatchMode::kProtoThread;
  std::string name;  // diagnostics
};

struct EventStats {
  uint64_t raised = 0;
  uint64_t dispatched = 0;
  uint64_t unhandled = 0;
};

class EventService : public obj::Object {
 public:
  // Attaches to the machine's interrupt controller; `popup` supplies the
  // pop-up/proto-thread machinery.
  EventService(hw::Machine* machine, threads::PopupEngine* popup);

  // Hard bound on call-backs per event. Registrations live in a fixed-size
  // per-event array, so raising an event walks a flat table — no snapshot
  // copy, no allocation — and the bound turns runaway registration into a
  // loud kResourceExhausted instead of silent slowdown.
  static constexpr size_t kMaxRegistrationsPerEvent = 16;

  // Registers a call-back for `event`. Multiple registrations per event are
  // allowed, delivered in registration order — with one corner: when the
  // table is at capacity and a call-back unregisters + re-registers during
  // a dispatch, the replacement inherits the freed slot's position instead
  // of going last. Returns a registration id.
  Result<uint64_t> Register(EventNumber event, Context* context, EventCallback callback,
                            threads::DispatchMode mode = threads::DispatchMode::kProtoThread,
                            std::string name = {});
  Status Unregister(uint64_t registration_id);

  // Raises a software event (trap). Interrupts arrive via the controller.
  void RaiseTrap(EventNumber trap, uint64_t detail);

  const EventStats& stats() const { return stats_; }
  size_t registration_count(EventNumber event) const;

 private:
  struct Entry {
    uint64_t id = 0;  // 0: slot free / tombstoned
    EventRegistration registration;
  };

  // The live registrations for one event: a bounded array plus the length
  // of its occupied prefix. Entries unregistered during an active dispatch
  // are tombstoned (id = 0) and compacted once dispatch unwinds, so the
  // walk never shifts under a running iteration.
  struct EventSlots {
    std::array<Entry, kMaxRegistrationsPerEvent> entries;
    size_t count = 0;
    size_t live = 0;  // count minus tombstones
    bool warned_unhandled = false;
  };

  void Dispatch(EventNumber event, uint64_t detail);
  static void Compact(EventSlots& slots);

  hw::Machine* machine_;
  threads::PopupEngine* popup_;
  std::vector<EventSlots> table_;  // indexed by event number
  uint64_t next_id_ = 1;
  int dispatch_depth_ = 0;
  bool pending_compaction_ = false;
  EventStats stats_;
  // Aliases onto stats_ — declared last so they unregister first.
  telemetry::ScopedMetricGroup metrics_;
};

}  // namespace para::nucleus

#endif  // PARAMECIUM_SRC_NUCLEUS_EVENT_H_
