#include "src/nucleus/event.h"

#include "src/base/log.h"

namespace para::nucleus {

EventService::EventService(hw::Machine* machine, threads::PopupEngine* popup)
    : machine_(machine), popup_(popup), table_(kEventCount) {
  PARA_CHECK(machine != nullptr && popup != nullptr);
  machine_->irq().set_delivery_hook([this](int line) { Dispatch(IrqEvent(line), 0); });
  metrics_.Counter("nucleus.events.raised", &stats_.raised);
  metrics_.Counter("nucleus.events.dispatched", &stats_.dispatched);
  metrics_.Counter("nucleus.events.unhandled", &stats_.unhandled);
}

Result<uint64_t> EventService::Register(EventNumber event, Context* context,
                                        EventCallback callback, threads::DispatchMode mode,
                                        std::string name) {
  if (event >= kEventCount) {
    return Status(ErrorCode::kInvalidArgument, "unknown event");
  }
  if (context == nullptr || callback == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "call-back needs a context and a function");
  }
  EventSlots& slots = table_[event];
  if (slots.live == kMaxRegistrationsPerEvent) {
    return Status(ErrorCode::kResourceExhausted, "event registration table full");
  }
  Entry* entry = nullptr;
  if (slots.count < kMaxRegistrationsPerEvent) {
    entry = &slots.entries[slots.count];
    ++slots.count;
  } else {
    // Occupied prefix is full but holds tombstones (only possible while a
    // dispatch is active, since unregistering compacts otherwise): reuse
    // the first tombstoned slot. The active walk skips it via the id guard;
    // the registration inherits the tombstone's position rather than strict
    // registration order in this (full-table, mid-dispatch) corner.
    for (Entry& candidate : slots.entries) {
      if (candidate.id == 0) {
        entry = &candidate;
        break;
      }
    }
  }
  uint64_t id = next_id_++;
  entry->id = id;
  entry->registration = {context, std::move(callback), mode, std::move(name)};
  ++slots.live;
  return id;
}

Status EventService::Unregister(uint64_t registration_id) {
  if (registration_id == 0) {
    return Status(ErrorCode::kNotFound, "no such registration");
  }
  for (EventSlots& slots : table_) {
    for (size_t i = 0; i < slots.count; ++i) {
      Entry& entry = slots.entries[i];
      if (entry.id == registration_id) {
        // Destroy the registration now (dispatch invokes a copy, so this is
        // safe even for a call-back unregistering itself) but keep the slot
        // as a tombstone while any dispatch walks the array; it compacts
        // once the walk unwinds.
        entry.id = 0;
        entry.registration = EventRegistration{};
        --slots.live;
        if (dispatch_depth_ > 0) {
          pending_compaction_ = true;
        } else {
          Compact(slots);
        }
        return OkStatus();
      }
    }
  }
  return Status(ErrorCode::kNotFound, "no such registration");
}

void EventService::Compact(EventSlots& slots) {
  size_t out = 0;
  for (size_t i = 0; i < slots.count; ++i) {
    if (slots.entries[i].id != 0) {
      if (out != i) {
        slots.entries[out] = std::move(slots.entries[i]);
        slots.entries[i] = Entry{};
      }
      ++out;
    }
  }
  slots.count = out;
}

void EventService::RaiseTrap(EventNumber trap, uint64_t detail) {
  PARA_CHECK(trap >= kEventTrapBase && trap < kEventCount);
  Dispatch(trap, detail);
}

void EventService::Dispatch(EventNumber event, uint64_t detail) {
  ++stats_.raised;
  if constexpr (telemetry::kEnabled) {
    // 1-in-64 sampled instant: raw dispatch is a ~16 ns path, so the trace
    // marker (a TSC read + ring store) cannot be always-on.
    thread_local uint64_t sample_tick = 0;
    if ((++sample_tick & 63) == 0) [[unlikely]] {
      PARA_TRACE_INSTANT("nucleus.event.dispatch", event);
    }
  }
  EventSlots& slots = table_[event];
  if (slots.live == 0) {
    // Warn once per event number; an unpolled device raises per frame.
    ++stats_.unhandled;
    if (!slots.warned_unhandled) {
      slots.warned_unhandled = true;
      PARA_WARN("unhandled processor event %u (detail 0x%llx), further raises only counted",
                event, static_cast<unsigned long long>(detail));
    }
    return;
  }
  // Walk the occupied prefix as it was when the event was raised: entries
  // registered by a running call-back (id >= latest, whether appended or
  // placed in a reused tombstone slot) are not delivered this round, and
  // unregistered ones become tombstones we skip — same semantics as the old
  // snapshot copy, without copying.
  size_t n = slots.count;
  uint64_t latest = next_id_;
  ++dispatch_depth_;
  for (size_t i = 0; i < n; ++i) {
    Entry& entry = slots.entries[i];
    if (entry.id == 0 || entry.id >= latest) {
      continue;
    }
    ++stats_.dispatched;
    const EventRegistration& reg = entry.registration;
    popup_->Dispatch([cb = reg.callback, event, detail]() { cb(event, detail); }, reg.mode);
  }
  --dispatch_depth_;
  if (dispatch_depth_ == 0 && pending_compaction_) {
    for (EventSlots& s : table_) {
      Compact(s);
    }
    pending_compaction_ = false;
  }
}

size_t EventService::registration_count(EventNumber event) const {
  return event < kEventCount ? table_[event].live : 0;
}

}  // namespace para::nucleus
