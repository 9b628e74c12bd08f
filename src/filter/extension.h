// Rule-procedure extensions — NPF's "rproc" idea realized as certifiable
// kernel extensions. A rule may attach named, parameterized procedures
// (rule.h: RuleProcSpec); each procedure is a *separately compiled* SFI
// program generated from its spec, verified like any other program, and —
// on the certified load path — individually signed and validated for kernel
// residence so it runs kTrusted with no run-time checks. The dispatch step
// stays a pure pass/drop/reject classifier; everything with per-rule state
// or side effects (counting, rate limiting, sampled logging, probabilistic
// drop, header normalization) lives here, behind the registry.
//
// Procedure ABI (the contract between the filter and a generated program):
//  * entry point 0; argument 0 is the direction (0 ingress, 1 egress);
//  * VM memory starts with the packet descriptor (compiler.h layout; the
//    filter marshals the header fields before every run — payload bytes are
//    NOT marshalled for procedures, and a program declaring less than
//    kDescriptorBytes of memory fails the load), and everything from
//    kProcStateBase up is persistent per-procedure state: VM memory
//    survives across runs, so a counter or token bucket lives there
//    between packets;
//  * host helpers kProcHelperNow / kProcHelperRandom are bound on every
//    procedure VM. They behave identically in both execution modes, which
//    is what makes a certified procedure bit-for-bit equivalent to its
//    sandboxed self (the differential tests assert exactly that);
//  * the return value is a result word: kProcResultBlock drops the packet
//    (and aborts the rest of the chain), kProcResultEvent raises a
//    kTrapFilterVerdict event carrying the procedure's id, and a non-zero
//    ProcResultTtl() asks the egress path to rewrite the packet's TTL.
// A procedure that faults (SFI violation, fuel exhaustion) drops the packet
// — fail closed — but never takes the filter down.
//
// Built-ins (BuiltIns()):
//   count                       increment a persistent counter, raise event
//   ratelimit(rate=,burst=)     token bucket, `rate` packets/s, `burst` deep
//   log(every=)                 raise an event every Nth matched packet
//   rndblock(percent=)          drop `percent`% of packets (host randomness)
//   normalize(ttl=)             rewrite the outgoing TTL to a fixed value
#ifndef PARAMECIUM_SRC_FILTER_EXTENSION_H_
#define PARAMECIUM_SRC_FILTER_EXTENSION_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/filter/compiler.h"
#include "src/filter/rule.h"
#include "src/sfi/isa.h"

namespace para::filter {

// Result-word bits a procedure returns.
inline constexpr uint64_t kProcResultBlock = 1;  // bit 0: drop the packet
inline constexpr uint64_t kProcResultEvent = 2;  // bit 1: raise a verdict event
// Bits 8..15 carry a TTL override (0 = leave the packet alone).
constexpr uint8_t ProcResultTtl(uint64_t result) { return static_cast<uint8_t>(result >> 8); }
constexpr uint64_t ProcResultWithTtl(uint8_t ttl) { return static_cast<uint64_t>(ttl) << 8; }

// First byte of persistent per-procedure state in VM memory (everything
// below is the per-packet descriptor the filter re-marshals each run).
inline constexpr size_t kProcStateBase = kDescriptorBytes;
// State budget the generated programs get past the descriptor.
inline constexpr size_t kProcStateBytes = 64;

// Host helper slots bound on every procedure VM.
inline constexpr size_t kProcHelperNow = 0;     // arg ignored -> virtual time, ns
inline constexpr size_t kProcHelperRandom = 1;  // arg = modulus -> uniform [0, modulus)

// Generates the sfi::Program implementing `spec` (spec.args are the
// procedure's parameters). Rejects invalid parameters at generate time —
// nothing a generator accepts may fault by construction (e.g. no division
// by a zero parameter, which trusted mode would not catch).
using RuleProcGenerator = Result<sfi::Program> (*)(const RuleProcSpec& spec);

// Named generators, looked up by RuleProcSpec::name at rule-set load time.
// The registry holds code *templates*; state lives in the per-rule VM
// instances the filter creates, so two rules using the same procedure name
// never share a counter or bucket.
class RuleProcRegistry {
 public:
  RuleProcRegistry() = default;

  // Registers `generator` under `name`; rejects duplicates.
  Status Register(const std::string& name, RuleProcGenerator generator);

  bool Contains(std::string_view name) const;

  // Generates the program for `spec`, or kNotFound for unknown names.
  Result<sfi::Program> Generate(const RuleProcSpec& spec) const;

  std::vector<std::string> Names() const;

 private:
  std::map<std::string, RuleProcGenerator, std::less<>> generators_;
};

// The built-in registry (count, ratelimit, log, rndblock, normalize).
// FilterConfig::procs defaults to this when left null.
const RuleProcRegistry& BuiltIns();

}  // namespace para::filter

#endif  // PARAMECIUM_SRC_FILTER_EXTENSION_H_
