// Protocol-stack component: the configurability showcase (§1: "inserting
// application components for fast protocol processing into a shared network
// device driver"; experiment E9).
//
// The component binds to a network driver *by name* through the directory
// service. When instantiated in the driver's protection domain the binding
// is a direct object reference; in any other domain it is a fault-based
// proxy. The component itself is identical in both placements — exactly the
// paper's claim that components "can be configured dynamically to reside
// either in the kernel or in the application's address space".
#ifndef PARAMECIUM_SRC_COMPONENTS_PROTOCOL_STACK_H_
#define PARAMECIUM_SRC_COMPONENTS_PROTOCOL_STACK_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/components/interfaces.h"
#include "src/net/stack.h"
#include "src/nucleus/directory.h"
#include "src/nucleus/event.h"
#include "src/nucleus/vmem.h"
#include "src/obj/object.h"

namespace para::components {

// Names for StackType slot 3 (`stats(index)`), in index order — the single
// source of truth tying the numbered control-interface slots to the
// `net.stack.<host>.<name>` registry metrics (see ProtocolStack's ctor) and
// to the slot-map test. Slot 11 is reserved (the retired per-stack
// count-verdict tally) and always reads 0.
inline constexpr std::string_view kStackStatsSlotNames[] = {
    "frames_out",     "frames_in",   "datagrams_out", "datagrams_in",
    "drops_bad_frame", "drops_not_for_us", "drops_no_socket", "drops_filtered",
    "filter_pass",    "filter_drop", "filter_reject", "",  // 11: reserved
    "filter_ttl_rewrites",
};

class StackComponent : public obj::Object {
 public:
  struct Deps {
    nucleus::VirtualMemoryService* vmem = nullptr;
    nucleus::EventService* events = nullptr;
    nucleus::DirectoryService* directory = nullptr;
  };

  // Binds to the driver at `driver_path` from `home` and wires RX interrupts
  // to the stack input path.
  static Result<std::unique_ptr<StackComponent>> Create(Deps deps, nucleus::Context* home,
                                                        const std::string& driver_path,
                                                        net::StackConfig config);

  ~StackComponent() override;

  net::ProtocolStack& stack() { return *stack_; }
  bool bound_via_proxy() const { return via_proxy_; }
  nucleus::Context* home() const { return home_; }

  // Pulls every frame the driver has buffered into the stack (also invoked
  // from the RX interrupt pop-up thread).
  void PumpRx();

  // Method implementations (see interfaces.h for the slot contract).
  uint64_t Send(uint64_t dst_ip, uint64_t ports, uint64_t payload_vaddr, uint64_t len);
  uint64_t BindPort(uint64_t port, uint64_t, uint64_t, uint64_t);
  uint64_t Recv(uint64_t port, uint64_t dest_vaddr, uint64_t capacity, uint64_t);
  uint64_t Stats(uint64_t index, uint64_t, uint64_t, uint64_t);

 private:
  StackComponent(Deps deps, nucleus::Context* home) : deps_(deps), home_(home) {}

  Status Setup(const std::string& driver_path, net::StackConfig config);
  Status SendFrame(std::span<const uint8_t> frame);

  Deps deps_;
  nucleus::Context* home_;
  const obj::Interface* driver_ = nullptr;
  bool via_proxy_ = false;
  std::unique_ptr<net::ProtocolStack> stack_;
  nucleus::VAddr tx_buffer_ = 0;  // frame staging in the home domain
  nucleus::VAddr rx_buffer_ = 0;
  std::vector<uint8_t> rx_frame_;  // PumpRx's reusable copy of rx_buffer_
  uint64_t event_registration_ = 0;
  // Received payloads per bound port. Delivered datagrams only alias the
  // frame for the handler call, so the inbox keeps its own copies.
  std::map<net::Port, std::deque<std::vector<uint8_t>>> inboxes_;
};

}  // namespace para::components

#endif  // PARAMECIUM_SRC_COMPONENTS_PROTOCOL_STACK_H_
