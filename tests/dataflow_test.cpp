#include <gtest/gtest.h>

#include "compiler/alias_analysis.hpp"
#include "compiler/cfg.hpp"
#include "compiler/liveness.hpp"
#include "ir/builder.hpp"

namespace gecko::compiler {
namespace {

using ir::Program;
using ir::ProgramBuilder;

TEST(LivenessTest, StraightLine)
{
    ProgramBuilder b("t");
    b.movi(1, 5)      // 0: def r1
        .movi(2, 7)   // 1: def r2
        .add(3, 1, 2)  // 2: use r1,r2 def r3
        .out(0, 3)     // 3: use r3
        .halt();       // 4
    Program p = b.take();
    Cfg cfg = Cfg::build(p);
    Liveness live = Liveness::build(p, cfg);

    EXPECT_EQ(live.liveIn(0), 0);  // nothing live before first def
    EXPECT_TRUE(live.liveIn(2) & regBit(1));
    EXPECT_TRUE(live.liveIn(2) & regBit(2));
    EXPECT_FALSE(live.liveIn(3) & regBit(1));  // r1 dead after add
    EXPECT_TRUE(live.liveIn(3) & regBit(3));
    EXPECT_EQ(live.liveOut(3) & regBit(3), 0);
}

TEST(LivenessTest, LoopCarriedLiveness)
{
    ProgramBuilder b("t");
    b.movi(1, 10)
        .movi(2, 0)
        .label("head")
        .add(2, 2, 1)   // r2 loop-carried
        .subi(1, 1, 1)
        .movi(3, 0)
        .bne(1, 3, "head")
        .out(0, 2)
        .halt();
    Program p = b.take();
    Cfg cfg = Cfg::build(p);
    Liveness live = Liveness::build(p, cfg);

    std::size_t head = p.labelPos(*p.findLabel("head"));
    EXPECT_TRUE(live.liveIn(head) & regBit(1));
    EXPECT_TRUE(live.liveIn(head) & regBit(2));
}

TEST(ReachingDefsTest, UniqueAndMergedDefs)
{
    ProgramBuilder b("t");
    b.movi(1, 1)           // 0
        .beq(1, 0, "else") // 1
        .movi(2, 10)       // 2
        .jmp("join")       // 3
        .label("else")
        .movi(2, 20)       // 4
        .label("join")
        .out(0, 2)         // 5
        .halt();           // 6
    Program p = b.take();
    Cfg cfg = Cfg::build(p);
    ReachingDefs rd = ReachingDefs::build(p, cfg);

    // r1 at the out: unique def at 0.
    EXPECT_EQ(rd.uniqueDefAt(5, 1), 0);
    // r2 at the out: two defs merge.
    EXPECT_EQ(rd.uniqueDefAt(5, 2), -2);
    EXPECT_EQ(rd.defsAt(5, 2).size(), 2u);
    // r3 never defined: entry def only.
    const auto& defs3 = rd.defsAt(5, 3);
    ASSERT_EQ(defs3.size(), 1u);
    EXPECT_EQ(defs3[0], ReachingDefs::kEntryDef);
}

TEST(ConstPropTest, FoldsChains)
{
    ProgramBuilder b("t");
    b.movi(1, 100)
        .addi(2, 1, 28)    // r2 = 128
        .shli(3, 2, 2)     // r3 = 512
        .load(4, 3, 4)     // addr = 512 + 4
        .halt();
    Program p = b.take();
    Cfg cfg = Cfg::build(p);
    ReachingDefs rd = ReachingDefs::build(p, cfg);
    AliasAnalysis aa = AliasAnalysis::build(p, cfg, rd);

    EXPECT_TRUE(aa.regAt(3, 3).isConst());
    EXPECT_EQ(aa.regAt(3, 3).value, 512u);
    auto addr = aa.constAddr(3);
    ASSERT_TRUE(addr.has_value());
    EXPECT_EQ(*addr, 516u);
}

TEST(ConstPropTest, MergeLosesDifferingConstants)
{
    ProgramBuilder b("t");
    b.movi(1, 1)
        .beq(1, 0, "else")
        .movi(2, 10)
        .jmp("join")
        .label("else")
        .movi(2, 20)
        .label("join")
        .load(3, 2, 0)  // base r2 not a constant here
        .halt();
    Program p = b.take();
    Cfg cfg = Cfg::build(p);
    ReachingDefs rd = ReachingDefs::build(p, cfg);
    AliasAnalysis aa = AliasAnalysis::build(p, cfg, rd);

    std::size_t load = p.size() - 2;
    EXPECT_FALSE(aa.constAddr(load).has_value());
}

TEST(AliasTest, ConstAddressesDisambiguate)
{
    ProgramBuilder b("t");
    b.movi(1, 100)
        .movi(2, 7)
        .store(1, 0, 2)   // 2: store @100
        .store(1, 1, 2)   // 3: store @101
        .load(3, 1, 0)    // 4: load @100
        .halt();
    Program p = b.take();
    Cfg cfg = Cfg::build(p);
    ReachingDefs rd = ReachingDefs::build(p, cfg);
    AliasAnalysis aa = AliasAnalysis::build(p, cfg, rd);

    EXPECT_EQ(aa.alias(2, 3), AliasVerdict::kNoAlias);
    EXPECT_EQ(aa.alias(2, 4), AliasVerdict::kMustAlias);
}

TEST(AliasTest, SameSymbolicBaseDifferentOffsets)
{
    ProgramBuilder b("t");
    b.in(1, 0)            // r1 unknown base
        .store(1, 0, 2)   // 1
        .store(1, 4, 2)   // 2
        .load(3, 1, 0)    // 3
        .in(1, 0)         // 4: base redefined
        .load(4, 1, 0)    // 5
        .halt();
    Program p = b.take();
    Cfg cfg = Cfg::build(p);
    ReachingDefs rd = ReachingDefs::build(p, cfg);
    AliasAnalysis aa = AliasAnalysis::build(p, cfg, rd);

    EXPECT_EQ(aa.alias(1, 2), AliasVerdict::kNoAlias);
    EXPECT_EQ(aa.alias(1, 3), AliasVerdict::kMustAlias);
    // Different reaching defs of the base: may alias.
    EXPECT_EQ(aa.alias(1, 5), AliasVerdict::kMayAlias);
}

TEST(AliasTest, ReadOnlyAddressClassification)
{
    ProgramBuilder b("t");
    b.movi(1, 200)
        .movi(2, 3)
        .store(1, 0, 2)   // writes @200
        .load(3, 1, 0)    // @200: not read-only
        .load(4, 1, 50)   // @250: read-only (never stored)
        .halt();
    Program p = b.take();
    Cfg cfg = Cfg::build(p);
    ReachingDefs rd = ReachingDefs::build(p, cfg);
    AliasAnalysis aa = AliasAnalysis::build(p, cfg, rd);

    EXPECT_FALSE(aa.isReadOnlyLoad(3));
    EXPECT_TRUE(aa.isReadOnlyLoad(4));
}

TEST(AliasTest, UnknownStorePoisonsReadOnly)
{
    ProgramBuilder b("t");
    b.in(1, 0)
        .store(1, 0, 2)   // unknown address store
        .movi(2, 300)
        .load(3, 2, 0)
        .halt();
    Program p = b.take();
    Cfg cfg = Cfg::build(p);
    ReachingDefs rd = ReachingDefs::build(p, cfg);
    AliasAnalysis aa = AliasAnalysis::build(p, cfg, rd);

    EXPECT_FALSE(aa.isReadOnlyLoad(3));
}

TEST(AliasTest, ZeroBlockCfgResolvesNothing)
{
    // The CFG of an empty program has no blocks and no entry block; the
    // analyses must not index one, and must answer conservatively.
    ProgramBuilder b("t");
    b.movi(1, 100).store(1, 0, 2).load(3, 1, 4).halt();
    Program p = b.take();
    const Cfg empty = Cfg::build(Program{});
    ASSERT_EQ(empty.numBlocks(), 0u);
    ReachingDefs rd = ReachingDefs::build(p, empty);
    AliasAnalysis aa = AliasAnalysis::build(p, empty, rd);

    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_EQ(aa.regAt(i, 1).kind, ConstVal::Kind::kTop) << i;
    EXPECT_FALSE(aa.constAddr(1).has_value());
    EXPECT_FALSE(aa.isReadOnlyAddr(104));
    EXPECT_FALSE(aa.isReadOnlyLoad(2));
}

}  // namespace
}  // namespace gecko::compiler
