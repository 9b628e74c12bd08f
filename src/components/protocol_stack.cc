#include "src/components/protocol_stack.h"

#include <utility>

#include "src/base/log.h"
#include "src/hw/netdev.h"

namespace para::components {

namespace {
// Slot indices in NetDriverType().
constexpr size_t kDriverSend = 0;
constexpr size_t kDriverPollRecv = 1;
constexpr size_t kDriverIrqEvent = 3;
}  // namespace

Result<std::unique_ptr<StackComponent>> StackComponent::Create(Deps deps,
                                                               nucleus::Context* home,
                                                               const std::string& driver_path,
                                                               net::StackConfig config) {
  if (deps.vmem == nullptr || deps.events == nullptr || deps.directory == nullptr ||
      home == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "stack component needs its dependencies");
  }
  auto component = std::unique_ptr<StackComponent>(new StackComponent(deps, home));
  PARA_RETURN_IF_ERROR(component->Setup(driver_path, config));
  return component;
}

StackComponent::~StackComponent() {
  if (event_registration_ != 0) {
    (void)deps_.events->Unregister(event_registration_);
  }
}

Status StackComponent::Setup(const std::string& driver_path, net::StackConfig config) {
  // Late binding through the name space; a cross-domain driver arrives as a
  // proxy with payload marshalling on send (in) and poll_recv (out).
  nucleus::ProxyOptions options;
  const std::string iface = NetDriverType()->name();
  options.payload_slots.insert(iface + "#" + std::to_string(kDriverSend));
  options.out_payload_slots.insert(iface + "#" + std::to_string(kDriverPollRecv));
  PARA_ASSIGN_OR_RETURN(nucleus::Binding binding,
                        deps_.directory->Bind(driver_path, home_, options));
  via_proxy_ = binding.via_proxy;
  PARA_ASSIGN_OR_RETURN(driver_, binding.object->GetInterface(iface));

  // Frame staging buffers in the home domain.
  PARA_ASSIGN_OR_RETURN(tx_buffer_,
                        deps_.vmem->AllocatePages(home_, 1, nucleus::kProtReadWrite));
  PARA_ASSIGN_OR_RETURN(rx_buffer_,
                        deps_.vmem->AllocatePages(home_, 1, nucleus::kProtReadWrite));
  rx_frame_.reserve(nucleus::kPageSize);

  stack_ = std::make_unique<net::ProtocolStack>(
      config, [this](std::span<const uint8_t> frame) { return SendFrame(frame); });

  // RX interrupts -> pop-up thread -> PumpRx. The event number comes from
  // the driver itself (works across domains: it is a plain return value).
  uint64_t event = driver_->Invoke(kDriverIrqEvent);
  PARA_ASSIGN_OR_RETURN(
      event_registration_,
      deps_.events->Register(static_cast<nucleus::EventNumber>(event), home_,
                             [this](nucleus::EventNumber, uint64_t) { PumpRx(); },
                             threads::DispatchMode::kProtoThread, "stack-rx"));

  obj::Interface exported(StackType(), this);
  exported.SetSlot(0, obj::Thunk<StackComponent, &StackComponent::Send>());
  exported.SetSlot(1, obj::Thunk<StackComponent, &StackComponent::BindPort>());
  exported.SetSlot(2, obj::Thunk<StackComponent, &StackComponent::Recv>());
  exported.SetSlot(3, obj::Thunk<StackComponent, &StackComponent::Stats>());
  ExportInterface(StackType()->name(), std::move(exported));
  return OkStatus();
}

Status StackComponent::SendFrame(std::span<const uint8_t> frame) {
  if (frame.size() > nucleus::kPageSize) {
    return Status(ErrorCode::kOutOfRange, "frame exceeds staging buffer");
  }
  PARA_RETURN_IF_ERROR(deps_.vmem->Write(home_, tx_buffer_, frame));
  uint64_t rc = driver_->Invoke(kDriverSend, tx_buffer_, frame.size());
  return rc == 0 ? OkStatus() : Status(ErrorCode::kUnavailable, "driver send failed");
}

void StackComponent::PumpRx() {
  // Borrow the staging vector for the loop: a handler that re-enters PumpRx
  // (say, a reply looped back to this stack) stages into a vector of its own
  // instead of overwriting the frame being delivered.
  std::vector<uint8_t> frame = std::exchange(rx_frame_, {});
  for (;;) {
    uint64_t len = driver_->Invoke(kDriverPollRecv, rx_buffer_, nucleus::kPageSize);
    if (len == 0) {
      break;
    }
    frame.resize(len);
    if (!deps_.vmem->Read(home_, rx_buffer_, frame).ok()) {
      break;
    }
    stack_->OnFrame(frame);
  }
  rx_frame_ = std::move(frame);
}

uint64_t StackComponent::Send(uint64_t dst_ip, uint64_t ports, uint64_t payload_vaddr,
                              uint64_t len) {
  if (len > nucleus::kPageSize) {
    return ~uint64_t{0};
  }
  std::vector<uint8_t> payload(len);
  if (!deps_.vmem->Read(home_, payload_vaddr, payload).ok()) {
    return ~uint64_t{0};
  }
  auto src_port = static_cast<net::Port>(ports >> 16);
  auto dst_port = static_cast<net::Port>(ports & 0xFFFF);
  Status sent = stack_->SendDatagram(static_cast<net::IpAddr>(dst_ip), src_port, dst_port,
                                     payload);
  return sent.ok() ? 0 : ~uint64_t{0};
}

uint64_t StackComponent::BindPort(uint64_t port, uint64_t, uint64_t, uint64_t) {
  auto p = static_cast<net::Port>(port);
  Status bound = stack_->BindPort(
      p, [this, p](const net::Datagram& datagram) {
        inboxes_[p].emplace_back(datagram.payload.begin(), datagram.payload.end());
      });
  return bound.ok() ? 0 : ~uint64_t{0};
}

uint64_t StackComponent::Recv(uint64_t port, uint64_t dest_vaddr, uint64_t capacity,
                              uint64_t) {
  auto it = inboxes_.find(static_cast<net::Port>(port));
  if (it == inboxes_.end() || it->second.empty()) {
    return 0;
  }
  std::vector<uint8_t> payload = std::move(it->second.front());
  it->second.pop_front();
  if (payload.size() > capacity) {
    return 0;
  }
  if (!deps_.vmem->Write(home_, dest_vaddr, payload).ok()) {
    return 0;
  }
  return payload.size();
}

uint64_t StackComponent::Stats(uint64_t index, uint64_t, uint64_t, uint64_t) {
  static_assert(std::size(kStackStatsSlotNames) == 13,
                "stats slot table out of step with the switch below");
  const net::StackStats& s = stack_->stats();
  switch (index) {
    case 0: return s.frames_out;
    case 1: return s.frames_in;
    case 2: return s.datagrams_out;
    case 3: return s.datagrams_in;
    case 4: return s.drops_bad_frame;
    case 5: return s.drops_not_for_us;
    case 6: return s.drops_no_socket;
    case 7: return s.drops_filtered;
    case 8: return s.filter_pass;
    case 9: return s.filter_drop;
    case 10: return s.filter_reject;
    // Slot 11 reported the retired per-stack count-verdict tally; counting
    // is a filter procedure now (FilterType slot 0, index 4). The slot stays
    // reserved so callers indexing past it keep their numbering.
    case 11: return 0;
    case 12: return s.filter_ttl_rewrites;
    default: return 0;
  }
}

}  // namespace para::components
