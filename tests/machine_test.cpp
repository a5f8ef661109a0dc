#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "compiler/pipeline.hpp"
#include "ir/assembler.hpp"
#include "ir/builder.hpp"
#include "sim/intermittent_sim.hpp"
#include "sim/machine.hpp"
#include "workloads/workloads.hpp"

namespace gecko::sim {
namespace {

using compiler::CompiledProgram;
using compiler::Scheme;
using ir::Program;
using ir::ProgramBuilder;

CompiledProgram
wrap(Program p)
{
    return compiler::compile(p, Scheme::kNvp);
}

struct Rig {
    Nvm nvm{4096};
    IoHub io;
};

TEST(MachineTest, AluAndControlFlow)
{
    Program p = ir::Assembler::assemble("t", R"(
        movi r1, 6
        movi r2, 7
        mul  r3, r1, r2
        sub  r3, r3, #2
        out  0, r3
        halt
)");
    CompiledProgram c = wrap(std::move(p));
    Rig rig;
    std::uint64_t cycles = runToCompletion(c, rig.nvm, rig.io);
    EXPECT_EQ(rig.io.output(0).values(), std::vector<std::uint32_t>{40});
    EXPECT_GT(cycles, 5u);
}

TEST(MachineTest, MemoryRoundTrip)
{
    Program p = ir::Assembler::assemble("t", R"(
        movi r1, 100
        movi r2, 12345
        store [r1+4], r2
        load  r3, [r1+4]
        out   0, r3
        halt
)");
    Rig rig;
    CompiledProgram c = wrap(std::move(p));
    runToCompletion(c, rig.nvm, rig.io);
    EXPECT_EQ(rig.io.output(0).values(), std::vector<std::uint32_t>{12345});
    EXPECT_EQ(rig.nvm.load(104), 12345u);
}

TEST(MachineTest, CallAndReturn)
{
    Program p = ir::Assembler::assemble("t", R"(
        movi r1, 5
        call double
        out  0, r1
        halt
double:
        add r1, r1, r1
        ret
)");
    Rig rig;
    CompiledProgram c = wrap(std::move(p));
    runToCompletion(c, rig.nvm, rig.io);
    EXPECT_EQ(rig.io.output(0).values(), std::vector<std::uint32_t>{10});
}

TEST(MachineTest, LoopExecutesCorrectCount)
{
    Program p = ir::Assembler::assemble("t", R"(
        movi r1, 0
        movi r2, 100
        movi r3, 0
loop:
        add  r1, r1, #3
        add  r3, r3, #1
        bne  r3, r2, loop
        out  0, r1
        halt
)");
    Rig rig;
    runToCompletion(wrap(std::move(p)), rig.nvm, rig.io);
    EXPECT_EQ(rig.io.output(0).values(), std::vector<std::uint32_t>{300});
}

TEST(MachineTest, InputStreamsAreIndexed)
{
    Program p = ir::Assembler::assemble("t", R"(
        in r1, 1
        in r2, 1
        add r3, r1, r2
        out 0, r3
        halt
)");
    Rig rig;
    rig.io.setInput(1, std::make_shared<VectorInput>(
                           std::vector<std::uint32_t>{10, 20, 30}));
    runToCompletion(wrap(std::move(p)), rig.nvm, rig.io);
    EXPECT_EQ(rig.io.output(0).values(), std::vector<std::uint32_t>{30});
}

TEST(MachineTest, FaultTolerantModeFlagsBadAccesses)
{
    Program p = ir::Assembler::assemble("t", R"(
        movi r1, 100000
        load r2, [r1]
        halt
)");
    CompiledProgram c = wrap(std::move(p));
    Rig rig;
    Machine m(c, rig.nvm, rig.io);

    // Default: throws.
    std::uint64_t consumed = 0;
    EXPECT_THROW(m.run(1000, &consumed), std::runtime_error);

    Machine m2(c, rig.nvm, rig.io);
    m2.setFaultTolerant(true);
    RunExit exit = m2.run(1000, &consumed);
    EXPECT_EQ(exit, RunExit::kFaulted);
    EXPECT_TRUE(m2.faulted());
    // A faulted machine subsequently burns cycles without progress.
    std::uint64_t instrs = m2.stats.instrs;
    m2.run(100, &consumed);
    EXPECT_EQ(consumed, 100u);
    EXPECT_EQ(m2.stats.instrs, instrs);
}

TEST(MachineTest, ContinuousModeRestartsAndCounts)
{
    Program p = ir::Assembler::assemble("t", R"(
        movi r1, 2
loop:
        sub r1, r1, #1
        movi r2, 0
        bne r1, r2, loop
        halt
)");
    CompiledProgram c = wrap(std::move(p));
    Rig rig;
    Machine m(c, rig.nvm, rig.io);
    m.setContinuous(true);
    std::uint64_t consumed = 0;
    m.run(10000, &consumed);
    EXPECT_GT(m.stats.completions, 100u);
}

TEST(MachineTest, StagedIoCommitsAtBoundary)
{
    // With staging, inCount only advances at a boundary.
    ProgramBuilder b("t");
    Program raw = b.in(1, 1).out(0, 1).halt().take();
    // Compile for GECKO to get boundaries around I/O.
    CompiledProgram c = compiler::compile(raw, Scheme::kGecko);
    Rig rig;
    rig.io.setInput(1, std::make_shared<VectorInput>(
                           std::vector<std::uint32_t>{42, 43}));
    runToCompletion(c, rig.nvm, rig.io);
    EXPECT_EQ(rig.io.output(0).values(), std::vector<std::uint32_t>{42});
    EXPECT_EQ(rig.nvm.inCount[1], 1u);
    EXPECT_EQ(rig.nvm.outCount[0], 1u);
}

TEST(MachineTest, CkptAndBoundarySemantics)
{
    ProgramBuilder b("t");
    ir::Program p = b.movi(3, 77).halt().take();
    // Hand-build: ckpt r3 slot 1, then boundary id 5.
    ir::Instr ck;
    ck.op = ir::Opcode::kCkpt;
    ck.rs1 = 3;
    ck.imm = 1;
    p.insertBefore(1, ck);
    ir::Instr bd;
    bd.op = ir::Opcode::kBoundary;
    bd.imm = 5;
    p.insertBefore(2, bd);

    CompiledProgram c;
    c.prog = std::move(p);
    c.scheme = Scheme::kGecko;  // staged mode

    Rig rig;
    Machine m(c, rig.nvm, rig.io);
    m.setStagedIo(true);
    std::uint64_t consumed = 0;
    m.run(100, &consumed);
    EXPECT_TRUE(m.halted());
    EXPECT_EQ(rig.nvm.slots[3][1], 77u);
    EXPECT_EQ(rig.nvm.committedRegion, 5u);
    EXPECT_EQ(rig.nvm.commitCount, 1u);
    EXPECT_EQ(m.stats.ckptStores, 1u);
}

class WorkloadGoldenTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadGoldenTest, ProducesDeterministicNonTrivialOutput)
{
    Program p = workloads::build(GetParam());
    ASSERT_EQ(p.validate(), "");
    CompiledProgram c = wrap(std::move(p));

    Rig r1, r2;
    workloads::setupIo(GetParam(), r1.io);
    workloads::setupIo(GetParam(), r2.io);
    std::uint64_t cyc1 = runToCompletion(c, r1.nvm, r1.io);
    std::uint64_t cyc2 = runToCompletion(c, r2.nvm, r2.io);

    EXPECT_EQ(cyc1, cyc2);
    EXPECT_FALSE(r1.io.output(0).values().empty());
    EXPECT_EQ(r1.io.output(0).values(), r2.io.output(0).values());
    EXPECT_GT(cyc1, 500u) << "workload too trivial";
}

TEST_P(WorkloadGoldenTest, InstrumentationPreservesSemantics)
{
    // The crucial compiler-correctness check: NVP (uninstrumented) and
    // GECKO (fully instrumented) runs must produce identical output.
    Program p = workloads::build(GetParam());
    CompiledProgram nvp = compiler::compile(p, Scheme::kNvp);
    CompiledProgram gecko = compiler::compile(p, Scheme::kGecko);
    CompiledProgram ratchet = compiler::compile(p, Scheme::kRatchet);

    Rig ra, rb, rc;
    workloads::setupIo(GetParam(), ra.io);
    workloads::setupIo(GetParam(), rb.io);
    workloads::setupIo(GetParam(), rc.io);
    runToCompletion(nvp, ra.nvm, ra.io);
    runToCompletion(gecko, rb.nvm, rb.io);
    runToCompletion(ratchet, rc.nvm, rc.io);

    EXPECT_EQ(ra.io.output(0).values(), rb.io.output(0).values());
    EXPECT_EQ(ra.io.output(0).values(), rc.io.output(0).values());
}

TEST_P(WorkloadGoldenTest, StepBlockDifferentialBitIdentical)
{
    // The production block-compiled backend must be indistinguishable
    // from the reference step() interpreter — counters, NVM, outputs,
    // registers, resting PC — on every workload and scheme.  The odd
    // budget slice stops runs at varied mid-block PCs, exercising the
    // block backend's budget-tail deoptimization every slice.
    Program p = workloads::build(GetParam());
    for (Scheme scheme : {Scheme::kNvp, Scheme::kRatchet, Scheme::kGecko}) {
        CompiledProgram c = compiler::compile(p, scheme);
        Rig step_rig, block_rig;
        workloads::setupIo(GetParam(), step_rig.io);
        workloads::setupIo(GetParam(), block_rig.io);
        Machine ref(c, step_rig.nvm, step_rig.io);
        Machine block(c, block_rig.nvm, block_rig.io);
        ref.setExecBackend(ExecBackend::kStep);
        block.setExecBackend(ExecBackend::kBlock);
        ref.setStagedIo(scheme != Scheme::kNvp);
        block.setStagedIo(scheme != Scheme::kNvp);

        while (!ref.halted() || !block.halted()) {
            std::uint64_t refConsumed = 0, blockConsumed = 0;
            RunExit refExit = ref.run(777, &refConsumed);
            RunExit blockExit = block.run(777, &blockConsumed);
            ASSERT_EQ(blockExit, refExit) << GetParam();
            ASSERT_EQ(blockConsumed, refConsumed) << GetParam();
            ASSERT_EQ(block.pc(), ref.pc()) << GetParam();
            ASSERT_TRUE(block.stats == ref.stats) << GetParam();
            ASSERT_LT(ref.stats.cycles, 1ull << 32) << "non-terminating";
        }
        EXPECT_EQ(block.regs(), ref.regs());
        EXPECT_EQ(block_rig.nvm.data(), step_rig.nvm.data());
        EXPECT_EQ(block_rig.io.output(0).values(),
                  step_rig.io.output(0).values());
        EXPECT_FALSE(step_rig.io.output(0).values().empty());
    }
}

TEST(MachineTest, BlockContinuousModeMatchesStep)
{
    // Continuous sensing mode restarts the program at kHalt; both tiers
    // must agree across many restarts, including the pending-I/O
    // staging counters.
    Program p = workloads::build("sensor_loop");
    CompiledProgram c = compiler::compile(p, Scheme::kGecko);
    Rig step_rig, block_rig;
    workloads::setupIo("sensor_loop", step_rig.io);
    workloads::setupIo("sensor_loop", block_rig.io);
    Machine ref(c, step_rig.nvm, step_rig.io);
    Machine block(c, block_rig.nvm, block_rig.io);
    ref.setExecBackend(ExecBackend::kStep);
    block.setExecBackend(ExecBackend::kBlock);
    for (Machine* m : {&ref, &block}) {
        m->setStagedIo(true);
        m->setContinuous(true);
    }

    for (int slice = 0; slice < 64; ++slice) {
        std::uint64_t ref_consumed = 0, block_consumed = 0;
        RunExit ref_exit = ref.run(1231, &ref_consumed);
        RunExit block_exit = block.run(1231, &block_consumed);
        ASSERT_EQ(block_exit, ref_exit);
        ASSERT_EQ(block_consumed, ref_consumed);
        ASSERT_EQ(block.pc(), ref.pc());
        ASSERT_TRUE(block.stats == ref.stats);
    }
    EXPECT_GT(block.stats.completions, 0u);
    EXPECT_EQ(block.pendingIn(), ref.pendingIn());
    EXPECT_EQ(block.pendingOut(), ref.pendingOut());
    EXPECT_EQ(block_rig.nvm.data(), step_rig.nvm.data());
    EXPECT_EQ(block_rig.io.output(0).values(),
              step_rig.io.output(0).values());
}

/** One adversarial start state for a counted-loop differential. */
struct LoopStart {
    std::uint32_t shift = 0;    ///< value being consumed (rS / LCG state)
    std::uint32_t counter = 0;  ///< rC
    std::uint32_t bound = 0;    ///< rB
    std::uint64_t budget = 0;   ///< cycles per run() slice
};

/**
 * Runs `src` (a loop at pc 1 over r5 = shifted value, r8 = counter and
 * r9 = bound, followed by a halt) on the step and block tiers from
 * `start`, checking exits, consumed cycles, pc, ExecStats and registers
 * after every slice.  A warm-up pass (counter 0, bound 8) first makes
 * the loop block hot, so the adversarial state runs through the
 * compiled `expect` micro-op, which the test asserts formed.  Runs stop
 * at halt or after `cap` cycles: a corrupted bound can leave billions of
 * iterations, which only the block tier's closed form can afford.
 */
void
expectLoopDifferential(const char* src, UopKind expect,
                       const LoopStart& start, std::uint64_t cap)
{
    CompiledProgram c = wrap(ir::Assembler::assemble("loop", src));
    Rig step_rig, block_rig;
    Machine ref(c, step_rig.nvm, step_rig.io);
    Machine block(c, block_rig.nvm, block_rig.io);
    ref.setExecBackend(ExecBackend::kStep);
    block.setExecBackend(ExecBackend::kBlock);
    for (Machine* m : {&ref, &block}) {
        m->regs()[9] = 8;
        ASSERT_EQ(m->run(1u << 20, nullptr), RunExit::kHalted);
        m->clearHalt();
        m->setPc(1);
        m->regs()[5] = start.shift;
        m->regs()[8] = start.counter;
        m->regs()[9] = start.bound;
    }
    ASSERT_EQ(block.compiledUopCount(expect), 1u);
    ASSERT_TRUE(block.stats == ref.stats);
    const std::uint64_t base = ref.stats.cycles;
    while (!ref.halted() && ref.stats.cycles - base < cap) {
        std::uint64_t refConsumed = 0, blockConsumed = 0;
        const RunExit refExit = ref.run(start.budget, &refConsumed);
        const RunExit blockExit = block.run(start.budget, &blockConsumed);
        ASSERT_EQ(blockExit, refExit);
        ASSERT_EQ(blockConsumed, refConsumed);
        ASSERT_EQ(block.pc(), ref.pc());
        ASSERT_TRUE(block.stats == ref.stats);
        ASSERT_EQ(block.regs(), ref.regs());
    }
    EXPECT_EQ(block.halted(), ref.halted());
}

/** Start states that attack a self-counted `add #1 ; blt` latch. */
std::vector<LoopStart>
adversarialLoopStarts()
{
    constexpr std::uint32_t kMax = 0x7fffffffu;  // INT32_MAX
    constexpr std::uint32_t kMin = 0x80000000u;  // INT32_MIN
    std::vector<LoopStart> starts;
    for (std::uint32_t shift : {0x9e3779b9u, 0x80000001u, 0xffffffffu, 0u}) {
        for (std::uint64_t budget : {7u, 13u, 37u, 193u, 100003u}) {
            // Counter at or past the bound: a single do-while pass.
            starts.push_back({shift, 50, 10, budget});
            starts.push_back({shift, 10, 10, budget});
            // Bound 2^31 away: budget-bounded, and k >= 32 drains rS.
            starts.push_back({shift, kMin, 0, budget});
            starts.push_back({shift, 0xfffffffbu, kMax, budget});
            // Counter next to INT32_MAX: wraps to INT32_MIN and runs on
            // unless the bound is INT32_MIN.
            starts.push_back({shift, kMax, 10, budget});
            starts.push_back({shift, kMax, kMax, budget});
            starts.push_back({shift, kMax, kMin, budget});
            starts.push_back({shift, kMax - 1, kMax, budget});
            starts.push_back({shift, kMax - 40, kMax, budget});
            // Ordinary short counts around the 32-bit shift edge.
            starts.push_back({shift, 0, 31, budget});
            starts.push_back({shift, 0, 32, budget});
            starts.push_back({shift, 0, 33, budget});
        }
    }
    return starts;
}

TEST(MachineTest, PopcntLoopMatchesStepFromAdversarialStates)
{
    // bitcnt's inner loop shape (r7 = bit, r6 = count); r7 and r6 start
    // nonzero after the warm-up pass.
    const char* src = R"(
        movi r5, 12345
loop:
        and  r7, r5, #1
        add  r6, r6, r7
        shr  r5, r5, #1
        add  r8, r8, #1
        blt  r8, r9, loop
        halt
)";
    for (const LoopStart& start : adversarialLoopStarts()) {
        SCOPED_TRACE(::testing::Message()
                     << "shift " << start.shift << " counter "
                     << start.counter << " bound " << start.bound
                     << " budget " << start.budget);
        expectLoopDifferential(src, UopKind::kPopcntLoop, start, 100000);
    }
}

TEST(MachineTest, LcgLoopMatchesStepFromAdversarialStates)
{
    // The LCG-accumulate loop shares the counted exit; a counter at
    // INT32_MAX must wrap and keep looping exactly as step() does.
    const char* src = R"(
        movi r5, 12345
loop:
        mul  r5, r5, #1103515245
        add  r5, r5, #12345
        shr  r7, r5, #16
        xor  r5, r5, r7
        add  r6, r6, r5
        add  r8, r8, #1
        blt  r8, r9, loop
        halt
)";
    for (const LoopStart& start : adversarialLoopStarts()) {
        SCOPED_TRACE(::testing::Message()
                     << "state " << start.shift << " counter "
                     << start.counter << " bound " << start.bound
                     << " budget " << start.budget);
        expectLoopDifferential(src, UopKind::kLcgAccLoop, start, 100000);
    }
}

TEST(MachineTest, PopcntLoopFormsOnBitcntUnderEveryScheme)
{
    // The bit-count loop carries no boundary or checkpoint, so every
    // scheme leaves it intact and the block tier collapses it.
    Program p = workloads::build("bitcnt");
    for (Scheme scheme : {Scheme::kNvp, Scheme::kRatchet,
                          Scheme::kGeckoNoPrune, Scheme::kGecko}) {
        CompiledProgram c = compiler::compile(p, scheme);
        Rig rig;
        Machine m(c, rig.nvm, rig.io);
        m.setExecBackend(ExecBackend::kBlock);
        m.setStagedIo(scheme != Scheme::kNvp);
        while (!m.halted())
            m.run(1u << 20, nullptr);
        EXPECT_EQ(m.compiledUopCount(UopKind::kPopcntLoop), 1u)
            << compiler::schemeName(scheme);
    }
}

TEST(MachineTest, ParseExecBackendAcceptsOnlyStepAndBlock)
{
    EXPECT_EQ(parseExecBackend("step"), ExecBackend::kStep);
    EXPECT_EQ(parseExecBackend("block"), ExecBackend::kBlock);
    // Unset or empty selects the production default.
    EXPECT_EQ(parseExecBackend(nullptr), ExecBackend::kBlock);
    EXPECT_EQ(parseExecBackend(""), ExecBackend::kBlock);
    // The retired tier and its old alias, and near-miss typos, are
    // rejected rather than silently mapped to a default.
    EXPECT_EQ(parseExecBackend("fast"), std::nullopt);
    EXPECT_EQ(parseExecBackend("slow"), std::nullopt);
    EXPECT_EQ(parseExecBackend("Block"), std::nullopt);
    EXPECT_EQ(parseExecBackend("blocks"), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadGoldenTest,
                         ::testing::ValuesIn([] {
                             auto v = workloads::benchmarkNames();
                             v.push_back("sensor_loop");
                             v.push_back("sensor_app");
                             v.push_back("xtea");
                             return v;
                         }()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace gecko::sim
