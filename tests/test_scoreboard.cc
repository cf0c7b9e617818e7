/**
 * @file
 * Scoreboard tests: RAW/WAW hazards, stall-on-use semantics, and the
 * memory-blocking classification the CTA stall detector relies on.
 */

#include <gtest/gtest.h>

#include "sm/scoreboard.hh"

namespace finereg
{
namespace
{

Instruction
aluUsing(int dst, int src0, int src1 = -1)
{
    Instruction instr;
    instr.op = Opcode::FADD;
    instr.dst = dst;
    instr.srcs = {src0, src1, -1};
    return instr;
}

TEST(Scoreboard, FreshBoardIsReady)
{
    Scoreboard sb;
    EXPECT_LE(sb.readyCycle(aluUsing(0, 1, 2), 0), 0u);
}

TEST(Scoreboard, RawHazardBlocksUntilReady)
{
    Scoreboard sb;
    sb.recordWrite(3, 100, false);
    Instruction use = aluUsing(4, 3);
    EXPECT_GT(sb.readyCycle(use, 50), 50u);
    EXPECT_EQ(sb.readyCycle(use, 50), 100u);
    EXPECT_LE(sb.readyCycle(use, 100), 100u);
}

TEST(Scoreboard, WawHazardBlocks)
{
    Scoreboard sb;
    sb.recordWrite(3, 100, false);
    Instruction redefine = aluUsing(3, 1);
    EXPECT_GT(sb.readyCycle(redefine, 50), 50u);
    EXPECT_LE(sb.readyCycle(redefine, 101), 101u);
}

TEST(Scoreboard, IndependentInstructionUnaffected)
{
    Scoreboard sb;
    sb.recordWrite(3, 100, false);
    EXPECT_LE(sb.readyCycle(aluUsing(5, 6), 0), 0u);
}

TEST(Scoreboard, MemoryBlockingClassification)
{
    Scoreboard sb;
    sb.recordWrite(2, 500, true);  // global load in flight
    sb.recordWrite(3, 500, false); // ALU in flight
    EXPECT_TRUE(sb.blockedOnMemory(aluUsing(4, 2), 100));
    EXPECT_FALSE(sb.blockedOnMemory(aluUsing(4, 3), 100));
    // After the load lands the warp is not memory-blocked.
    EXPECT_FALSE(sb.blockedOnMemory(aluUsing(4, 2), 500));
}

TEST(Scoreboard, RedefineClearsMemoryFlag)
{
    Scoreboard sb;
    sb.recordWrite(2, 500, true);
    sb.recordWrite(2, 50, false); // ALU redefines the register sooner
    EXPECT_FALSE(sb.blockedOnMemory(aluUsing(4, 2), 100));
    EXPECT_LE(sb.readyCycle(aluUsing(4, 2), 60), 60u);
}

TEST(Scoreboard, ReadyExpiresSettledEntries)
{
    Scoreboard sb;
    sb.recordWrite(1, 10, true);
    EXPECT_LE(sb.readyCycle(aluUsing(2, 1), 20), 20u);
    // Once expired, the stale memory flag must not resurface.
    EXPECT_FALSE(sb.blockedOnMemory(aluUsing(2, 1), 5));
}

TEST(Scoreboard, LastPendingCycle)
{
    Scoreboard sb;
    EXPECT_EQ(sb.lastPendingCycle(7), 7u);
    sb.recordWrite(1, 100, true);
    sb.recordWrite(2, 300, true);
    EXPECT_EQ(sb.lastPendingCycle(50), 300u);
}

TEST(Scoreboard, ClearResets)
{
    Scoreboard sb;
    sb.recordWrite(1, 1000, true);
    sb.clear();
    EXPECT_LE(sb.readyCycle(aluUsing(2, 1), 0), 0u);
    EXPECT_EQ(sb.lastPendingCycle(0), 0u);
}

TEST(Scoreboard, MultipleOperandsTakeLatest)
{
    Scoreboard sb;
    sb.recordWrite(1, 100, false);
    sb.recordWrite(2, 200, false);
    EXPECT_EQ(sb.readyCycle(aluUsing(3, 1, 2), 0), 200u);
}

} // namespace
} // namespace finereg
