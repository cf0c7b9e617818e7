#include "compiler/reg_width.hh"

#include "analysis/abstract_interp.hh"
#include "common/log.hh"
#include "isa/opcode.hh"

namespace finereg
{

namespace
{

using analysis::Interval;
using analysis::evalInterval;

/** Rounds of exact joining before every still-moving register widens. */
constexpr unsigned kExactRounds = 8;

/** A register past the declared allocation reads as unknown. */
Interval
operandOf(const std::vector<Interval> &env, int src)
{
    if (src < 0)
        return Interval::constant(0);
    if (std::size_t(src) >= env.size())
        return Interval::top();
    return env[std::size_t(src)];
}

} // namespace

RegWidthTable::RegWidthTable(const Kernel &kernel)
{
    const unsigned nregs = kernel.regsPerThread();
    bits_.assign(nregs, 32);

    // One interval per register, flow-insensitive: every def's abstract
    // result joins into its destination until nothing moves. The operand
    // environment is the same global map, so the result over-approximates
    // every execution order — including ones the CFG forbids — which is
    // exactly what makes the claim safely coarser than the flow-sensitive
    // derivation it is checked against.
    std::vector<Interval> env(nregs, Interval::bottom());
    const auto &instrs = kernel.instrs();

    bool changed = true;
    for (unsigned round = 0; changed; ++round) {
        if (round > kExactRounds + 2 * nregs + 8) {
            FINEREG_PANIC("reg-width fixpoint failed to converge on kernel ",
                          kernel.name());
        }
        changed = false;
        for (const Instruction &instr : instrs) {
            // A def past the declared allocation has no register to widen.
            if (instr.dst < 0 || unsigned(instr.dst) >= nregs)
                continue;
            Interval def;
            switch (funcUnitOf(instr.op)) {
              case FuncUnit::ALU:
              case FuncUnit::SFU:
                def = evalInterval(instr.op, operandOf(env, instr.srcs[0]),
                                   operandOf(env, instr.srcs[1]),
                                   operandOf(env, instr.srcs[2]));
                break;
              case FuncUnit::MEM:
                def = isLoad(instr.op) ? Interval::top() : Interval::bottom();
                break;
              case FuncUnit::CTRL:
                def = Interval::bottom();
                break;
            }
            const Interval joined = env[std::size_t(instr.dst)].join(def);
            if (!(joined == env[std::size_t(instr.dst)])) {
                env[std::size_t(instr.dst)] =
                    round >= kExactRounds
                        ? env[std::size_t(instr.dst)].widen(joined)
                        : joined;
                changed = true;
            }
        }
    }

    for (unsigned r = 0; r < nregs; ++r) {
        // Never-defined registers hold launch hashes: full width.
        bits_[r] = env[r].isBottom() ? 32 : env[r].bitsNeeded();
    }
}

unsigned
RegWidthTable::narrowRegs() const
{
    unsigned n = 0;
    for (const unsigned b : bits_)
        n += b < 32 ? 1 : 0;
    return n;
}

} // namespace finereg
