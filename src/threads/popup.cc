#include "src/threads/popup.h"

#include "src/base/log.h"

namespace para::threads {

ProtoSlot::ProtoSlot(PopupEngine* owner) : engine(owner) {
  fiber = std::make_unique<Fiber>([this]() { engine->ProtoLoop(this); });
}

PopupEngine::PopupEngine(Scheduler* scheduler, size_t pool_size) : scheduler_(scheduler) {
  PARA_CHECK(scheduler != nullptr);
  for (size_t i = 0; i < pool_size; ++i) {
    pool_.push_back(std::make_unique<ProtoSlot>(this));
  }
}

PopupEngine::~PopupEngine() = default;

std::unique_ptr<ProtoSlot> PopupEngine::TakeSlot() {
  if (pool_.empty()) {
    // Pool exhausted (deep nesting or many promotions): grow on demand.
    return std::make_unique<ProtoSlot>(this);
  }
  std::unique_ptr<ProtoSlot> slot = std::move(pool_.back());
  pool_.pop_back();
  return slot;
}

void PopupEngine::ProtoLoop(ProtoSlot* slot) {
  for (;;) {
    slot->work();
    slot->work = nullptr;
    if (slot->promoted) {
      // We are a real thread now: terminate through the scheduler. Exit's
      // switch-out resumes the dispatcher if this thread never blocked, or
      // the main loop otherwise.
      scheduler_->Exit();
    }
    slot->finished = true;
    Fiber* ret = slot->return_to;
    slot->return_to = nullptr;
    // Park until the next dispatch reuses this slot.
    ret->SwitchFrom(slot->fiber.get());
  }
}

void PopupEngine::Dispatch(PopupWork handler, DispatchMode mode, int priority) {
  ++stats_.dispatches;
  switch (mode) {
    case DispatchMode::kRawCallback:
      handler();
      return;

    case DispatchMode::kFullThread: {
      ++stats_.full_threads;
      scheduler_->SpawnDetached("popup-full-" + std::to_string(popup_counter_++),
                                std::move(handler), priority);
      return;
    }

    case DispatchMode::kProtoThread: {
      std::unique_ptr<ProtoSlot> slot = TakeSlot();
      ProtoSlot* raw = slot.get();
      raw->work = std::move(handler);
      raw->promoted = false;
      raw->finished = false;
      raw->promoted_thread = nullptr;

      // Save the scheduler's view of who is running; the proto borrows the
      // CPU synchronously and we restore on return.
      Thread* saved_current = scheduler_->current_;
      ProtoSlot* saved_proto = scheduler_->current_proto_;

      Fiber dispatcher_context;  // an empty saved-SP slot: costs nothing to build
      raw->return_to = &dispatcher_context;
      scheduler_->current_proto_ = raw;
      raw->fiber->SwitchFrom(&dispatcher_context);

      scheduler_->current_ = saved_current;
      scheduler_->current_proto_ = saved_proto;

      if (raw->promoted) {
        // The handler blocked/yielded and lives on as a thread; hand the
        // slot's storage (stack!) to that thread.
        ++stats_.promotions;
        PARA_CHECK(raw->promoted_thread != nullptr);
        raw->promoted_thread->proto_slot_ = std::move(slot);
      } else {
        PARA_CHECK(raw->finished);
        ++stats_.completed_inline;
        pool_.push_back(std::move(slot));
      }
      return;
    }
  }
}

}  // namespace para::threads
