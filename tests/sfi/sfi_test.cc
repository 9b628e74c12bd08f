// SFI baseline tests: assembler, verifier, VM semantics, sandbox/trusted
// mode differences, and the object-architecture bridge.
#include <gtest/gtest.h>

#include <cstring>

#include "src/sfi/assembler.h"
#include "src/sfi/component.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace para::sfi {
namespace {

Result<uint64_t> RunSource(const std::string& source, ExecMode mode, uint64_t a0 = 0,
                           uint64_t a1 = 0) {
  auto program = Assembler::Assemble(source);
  if (!program.ok()) {
    return program.status();
  }
  auto verified = Verify(*program);
  if (!verified.ok()) {
    return verified.status();
  }
  Vm vm(&*verified, mode);
  return vm.Run(0, a0, a1);
}

TEST(AssemblerTest, BasicProgram) {
  auto program = Assembler::Assemble(R"(
    push 2
    push 3
    add
    retv
  )");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->entry_points.size(), 1u);
  auto verified = Verify(*program);
  ASSERT_TRUE(verified.ok());
  Vm vm(&*verified, ExecMode::kSandboxed);
  auto result = vm.Run(0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 5u);
}

TEST(AssemblerTest, LabelsAndJumps) {
  // Sum 1..n via a loop.
  auto result = RunSource(R"(
    ; a0 = n
    push 0        ; memory[0] = accumulator at address 0? keep on stack
    ldarg 0
  loop:
    dup
    jz done
    dup           ; n n
    swap          ; ...
    drop
    ; acc += n  -- stack: acc n
    swap
    drop
    jmp exit
  done:
    drop
    retv
  exit:
    halt
  )", ExecMode::kSandboxed, 3);
  // The program above is intentionally convoluted control flow; it must at
  // least assemble and run to a halt/retv without faulting.
  ASSERT_TRUE(result.ok());
}

TEST(AssemblerTest, CommentsAndHex) {
  auto result = RunSource(R"(
    push 0x10   ; sixteen
    push 16
    eq
    retv
  )", ExecMode::kSandboxed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 1u);
}

TEST(AssemblerTest, Errors) {
  EXPECT_FALSE(Assembler::Assemble("frobnicate").ok());
  EXPECT_FALSE(Assembler::Assemble("push").ok());
  EXPECT_FALSE(Assembler::Assemble("jmp nowhere").ok());
  EXPECT_FALSE(Assembler::Assemble("ldarg 9").ok());
  EXPECT_FALSE(Assembler::Assemble("push 1 2").ok());
  EXPECT_FALSE(Assembler::Assemble("a: halt\na: halt").ok());
}

TEST(AssemblerTest, MultipleEntryPoints) {
  auto program = Assembler::Assemble(R"(
    .entry
    push 1
    retv
    .entry
    push 2
    retv
  )");
  ASSERT_TRUE(program.ok());
  ASSERT_EQ(program->entry_points.size(), 2u);
  auto verified = Verify(*program);
  ASSERT_TRUE(verified.ok());
  Vm vm(&*verified, ExecMode::kTrusted);
  EXPECT_EQ(*vm.Run(0), 1u);
  EXPECT_EQ(*vm.Run(1), 2u);
  EXPECT_FALSE(vm.Run(2).ok());
}

TEST(VerifierTest, AcceptsValidProgram) {
  auto program = Assembler::Assemble("push 1\nretv");
  ASSERT_TRUE(program.ok());
  auto verified = Verify(*program);
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(verified->report.instructions, 2u);
  // The decoded stream is the executable artifact: entry block check +
  // 2 real instructions + end sentinel.
  EXPECT_EQ(verified->entry_points.size(), 1u);
  EXPECT_GE(verified->code.size(), 3u);
}

TEST(VerifierTest, RejectsBadOpcode) {
  Program program;
  program.code = {0xEE};
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, RejectsTruncatedImmediate) {
  Program program;
  program.code = {static_cast<uint8_t>(Op::kPush), 1, 2};  // needs 8 operand bytes
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, RejectsJumpIntoImmediate) {
  Program program;
  program.code = {static_cast<uint8_t>(Op::kJmp), 0, 0, 0, 0};
  // Patch rel so the target lands inside this very instruction (offset 2).
  int32_t rel = -3;
  std::memcpy(program.code.data() + 1, &rel, 4);
  program.entry_points = {0};
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, RejectsJumpOutOfCode) {
  Program program;
  program.code = {static_cast<uint8_t>(Op::kJmp), 100, 0, 0, 0};
  program.entry_points = {0};
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, RejectsJumpOnePastEnd) {
  // Target == code.size() is one past the last instruction: a byte offset
  // that is never an instruction start, so it must not survive into the
  // decoded stream (where it would alias the end sentinel).
  Program program;
  program.code = {static_cast<uint8_t>(Op::kJmp), 0, 0, 0, 0};
  program.entry_points = {0};
  // rel 0 -> target = pc + 5 = code.size().
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, RejectsCallIntoImmediate) {
  // call targeting the middle of a push immediate: a valid byte offset but
  // not a decodable instruction — the decoded-index rewrite must refuse it.
  Program program;
  program.code = {static_cast<uint8_t>(Op::kCall), 0, 0, 0, 0,
                  static_cast<uint8_t>(Op::kPush), 1, 2, 3, 4, 5, 6, 7, 8,
                  static_cast<uint8_t>(Op::kHalt)};
  int32_t rel = 2;  // call target = 5 + 2 = byte 7, inside the immediate
  std::memcpy(program.code.data() + 1, &rel, 4);
  program.entry_points = {0};
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, RejectsNegativeJumpTarget) {
  Program program;
  program.code = {static_cast<uint8_t>(Op::kJmp), 0, 0, 0, 0};
  int32_t rel = -100;
  std::memcpy(program.code.data() + 1, &rel, 4);
  program.entry_points = {0};
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, RewritesJumpTargetsToDecodedIndices) {
  // A forward jump over a push: in byte space the target is offset 14; in
  // the decoded stream it must land exactly on the halt's decoded slot.
  auto program = Assembler::Assemble(R"(
    jmp over
    push 1
    drop
  over:
    halt
  )");
  ASSERT_TRUE(program.ok());
  auto verified = Verify(*program);
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  // Entry block: jmp (no stack motion, so no check precedes it).
  uint32_t entry = verified->entry_points[0];
  const DecodedInsn& jmp = verified->code[entry];
  ASSERT_EQ(jmp.op, static_cast<uint8_t>(Op::kJmp));
  EXPECT_EQ(verified->code[jmp.target].op, static_cast<uint8_t>(Op::kHalt));
  // Executing it must skip the push/drop.
  Vm vm(&*verified, ExecMode::kSandboxed);
  ASSERT_TRUE(vm.Run(0).ok());
  EXPECT_EQ(vm.stats().instructions, 2u);  // jmp + halt
}

TEST(VerifierTest, RejectsBadEntryPoint) {
  auto program = Assembler::Assemble("push 1\nretv");
  ASSERT_TRUE(program.ok());
  program->entry_points.push_back(3);  // inside the push immediate
  EXPECT_FALSE(Verify(*program).ok());
}

TEST(VmTest, ArithmeticOps) {
  EXPECT_EQ(*RunSource("push 7\npush 3\nsub\nretv", ExecMode::kSandboxed), 4u);
  EXPECT_EQ(*RunSource("push 6\npush 7\nmul\nretv", ExecMode::kSandboxed), 42u);
  EXPECT_EQ(*RunSource("push 17\npush 5\ndivu\nretv", ExecMode::kSandboxed), 3u);
  EXPECT_EQ(*RunSource("push 17\npush 5\nremu\nretv", ExecMode::kSandboxed), 2u);
  EXPECT_EQ(*RunSource("push 12\npush 10\nand\nretv", ExecMode::kSandboxed), 8u);
  EXPECT_EQ(*RunSource("push 12\npush 10\nor\nretv", ExecMode::kSandboxed), 14u);
  EXPECT_EQ(*RunSource("push 12\npush 10\nxor\nretv", ExecMode::kSandboxed), 6u);
  EXPECT_EQ(*RunSource("push 1\npush 8\nshl\nretv", ExecMode::kSandboxed), 256u);
  EXPECT_EQ(*RunSource("push 256\npush 8\nshr\nretv", ExecMode::kSandboxed), 1u);
  EXPECT_EQ(*RunSource("push 0\nnot\nretv", ExecMode::kSandboxed), 1u);
  EXPECT_EQ(*RunSource("push 3\npush 3\neq\nretv", ExecMode::kSandboxed), 1u);
  EXPECT_EQ(*RunSource("push 3\npush 4\nltu\nretv", ExecMode::kSandboxed), 1u);
  EXPECT_EQ(*RunSource("push 3\npush 4\ngtu\nretv", ExecMode::kSandboxed), 0u);
}

TEST(VmTest, DivideByZeroTrapped) {
  auto result = RunSource("push 1\npush 0\ndivu\nretv", ExecMode::kSandboxed);
  EXPECT_FALSE(result.ok());
}

TEST(VmTest, MemoryLoadStore) {
  auto result = RunSource(R"(
    push 128       ; address
    push 0xABCD
    store64
    push 128
    load64
    retv
  )", ExecMode::kSandboxed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 0xABCDu);
}

TEST(VmTest, NarrowLoadsAndStores) {
  auto result = RunSource(R"(
    push 0
    push 0x1122334455667788
    store64
    push 0
    load8
    retv
  )", ExecMode::kSandboxed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 0x88u);  // little-endian low byte
}

TEST(VmTest, Arguments) {
  auto result = RunSource("ldarg 0\nldarg 1\nadd\nretv", ExecMode::kSandboxed, 30, 12);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42u);
}

TEST(VmTest, LoopComputesSum) {
  // sum of 1..a0, accumulator in memory cell 0, i = a0 counting down.
  auto result = RunSource(R"(
    ; acc at mem[0], i = a0 counting down
    ldarg 0
  loop:
    dup
    jz done
    dup             ; i i
    push 0
    load64          ; i i acc
    add             ; i (i+acc)
    push 0
    swap            ; i 0 (i+acc)
    store64         ; i   ; mem[0] = i+acc
    push 1
    sub             ; i-1
    jmp loop
  done:
    drop
    push 0
    load64
    retv
  )", ExecMode::kSandboxed, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 55u);
}

TEST(VmTest, CallAndRet) {
  auto result = RunSource(R"(
    ldarg 0
    call double
    call double
    retv
  double:
    push 2
    mul
    ret
  )", ExecMode::kSandboxed, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 20u);
}

TEST(VmTest, SandboxBoundsCheckCatchesWildStore) {
  auto result = RunSource(R"(
    push 0x100000
    push 1
    store64
    halt
  )", ExecMode::kSandboxed);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), para::ErrorCode::kOutOfRange);
}

TEST(VmTest, SandboxBoundsCheckIsOverflowProof) {
  // addr + width would wrap for addresses near 2^64 and sneak past a naive
  // "addr + width > mem_size" test, turning into a host out-of-bounds
  // access. The sandbox must reject these outright.
  for (const char* addr : {"0xFFFFFFFFFFFFFFFF", "0xFFFFFFFFFFFFFFF8", "0x8000000000000000"}) {
    auto store = RunSource(std::string("push ") + addr + "\npush 1\nstore64\nhalt",
                           ExecMode::kSandboxed);
    ASSERT_FALSE(store.ok()) << addr;
    EXPECT_EQ(store.status().code(), para::ErrorCode::kOutOfRange) << addr;
    auto load = RunSource(std::string("push ") + addr + "\nload8\nretv",
                          ExecMode::kSandboxed);
    ASSERT_FALSE(load.ok()) << addr;
    EXPECT_EQ(load.status().code(), para::ErrorCode::kOutOfRange) << addr;
  }
}

TEST(VmTest, TrustedModeMatchesSandboxOnCorrectPrograms) {
  // Trusted mode runs with no checks; on *correct* (in-bounds, terminating)
  // programs the two modes must be semantically identical — that equivalence
  // is what makes the E7 efficiency comparison meaningful.
  const char* source = R"(
    push 128
    ldarg 0
    store64
    push 128
    load64
    ldarg 1
    add
    retv
  )";
  for (uint64_t a : {0ull, 7ull, 1000ull}) {
    auto trusted = RunSource(source, ExecMode::kTrusted, a, a * 3);
    auto sandboxed = RunSource(source, ExecMode::kSandboxed, a, a * 3);
    ASSERT_TRUE(trusted.ok());
    ASSERT_TRUE(sandboxed.ok());
    EXPECT_EQ(*trusted, *sandboxed);
    EXPECT_EQ(*trusted, a + a * 3);
  }
}

TEST(VmTest, SandboxCountsBoundsChecks) {
  auto program = Assembler::Assemble(R"(
    push 0
    load64
    drop
    push 8
    load64
    drop
    halt
  )");
  ASSERT_TRUE(program.ok());
  auto verified = Verify(*program);
  ASSERT_TRUE(verified.ok());
  Vm sandboxed(&*verified, ExecMode::kSandboxed);
  ASSERT_TRUE(sandboxed.Run(0).ok());
  EXPECT_EQ(sandboxed.stats().bounds_checks, 2u);
  Vm trusted(&*verified, ExecMode::kTrusted);
  ASSERT_TRUE(trusted.Run(0).ok());
  EXPECT_EQ(trusted.stats().bounds_checks, 0u);
}

TEST(VmTest, FuelStopsRunawayLoops) {
  auto program = Assembler::Assemble("loop: jmp loop");
  ASSERT_TRUE(program.ok());
  auto verified = Verify(*program);
  ASSERT_TRUE(verified.ok());
  Vm vm(&*verified, ExecMode::kSandboxed);
  vm.set_fuel(1000);
  auto result = vm.Run(0);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), para::ErrorCode::kResourceExhausted);
}

TEST(VmTest, StackOverflowDetected) {
  auto program = Assembler::Assemble(R"(
  loop:
    push 1
    jmp loop
  )");
  ASSERT_TRUE(program.ok());
  auto verified = Verify(*program);
  ASSERT_TRUE(verified.ok());
  Vm vm(&*verified, ExecMode::kSandboxed);
  auto result = vm.Run(0);
  EXPECT_FALSE(result.ok());
}

TEST(VmTest, StackUnderflowDetected) {
  auto result = RunSource("add\nretv", ExecMode::kSandboxed);
  EXPECT_FALSE(result.ok());
}

TEST(VmTest, CallDepthLimited) {
  auto program = Assembler::Assemble("recurse: call recurse\nret");
  ASSERT_TRUE(program.ok());
  auto verified = Verify(*program);
  ASSERT_TRUE(verified.ok());
  Vm vm(&*verified, ExecMode::kSandboxed);
  EXPECT_FALSE(vm.Run(0).ok());
}

TEST(SfiComponentTest, BridgesToObjectArchitecture) {
  static const obj::TypeInfo type("test.sfi.math", 1, {"add", "mul"});
  auto program = Assembler::Assemble(R"(
    .entry
    ldarg 0
    ldarg 1
    add
    retv
    .entry
    ldarg 0
    ldarg 1
    mul
    retv
  )");
  ASSERT_TRUE(program.ok());
  auto component = SfiComponent::Create(std::move(*program), &type, ExecMode::kSandboxed);
  ASSERT_TRUE(component.ok());
  auto iface = (*component)->GetInterface("test.sfi.math");
  ASSERT_TRUE(iface.ok());
  EXPECT_EQ((*iface)->Invoke(0, 20, 22), 42u);
  EXPECT_EQ((*iface)->Invoke(1, 6, 7), 42u);
}

TEST(SfiComponentTest, EntryCountMustMatchInterface) {
  static const obj::TypeInfo type("test.sfi.two", 1, {"a", "b"});
  auto program = Assembler::Assemble("push 1\nretv");  // one entry, two methods
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(SfiComponent::Create(std::move(*program), &type, ExecMode::kSandboxed).ok());
}

TEST(SfiComponentTest, UnverifiableProgramRejected) {
  static const obj::TypeInfo type("test.sfi.one", 1, {"m"});
  Program program;
  program.code = {0xEE};
  program.entry_points = {0};
  EXPECT_FALSE(SfiComponent::Create(std::move(program), &type, ExecMode::kSandboxed).ok());
}

}  // namespace
}  // namespace para::sfi
