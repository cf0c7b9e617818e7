#include "analysis/value_range.hh"

#include <sstream>

#include "isa/opcode.hh"

namespace finereg::analysis
{

namespace
{

/** Block-entry state: one abstract value per architectural register. */
struct ValueDomain
{
    using State = std::vector<ValueAbs>;

    const Kernel &kernel;

    /**
     * Registers hold per-thread launch hashes before any def: full-width
     * and per-lane distinct.
     */
    State
    boundary() const
    {
        return State(kernel.regsPerThread(), ValueAbs{Interval::top(), false});
    }

    State
    bottomState() const
    {
        return State(kernel.regsPerThread(), ValueAbs::bottom());
    }

    /** True when @p reg names a register of the environment. */
    static bool
    inRange(const State &env, int reg)
    {
        return reg >= 0 && std::size_t(reg) < env.size();
    }

    /** A register past the declared allocation reads as unknown. */
    static ValueAbs
    operand(const State &env, int src)
    {
        if (src < 0)
            return ValueAbs{Interval::constant(0), true};
        if (!inRange(env, src))
            return ValueAbs{Interval::top(), false};
        return env[std::size_t(src)];
    }

    /** Abstract effect of one instruction on the register environment. A
     * def past the declared allocation is dropped. */
    static void
    transferInstr(const Instruction &instr, State &env)
    {
        if (!inRange(env, instr.dst))
            return;
        switch (funcUnitOf(instr.op)) {
          case FuncUnit::ALU:
          case FuncUnit::SFU: {
            const ValueAbs a = operand(env, instr.srcs[0]);
            const ValueAbs b = operand(env, instr.srcs[1]);
            const ValueAbs c = operand(env, instr.srcs[2]);
            ValueAbs out;
            out.iv = evalInterval(instr.op, a.iv, b.iv, c.iv);
            out.uniform = a.uniform && b.uniform && c.uniform;
            env[std::size_t(instr.dst)] = out;
            break;
          }
          case FuncUnit::MEM:
            // Loads return pure address hashes: full-width, lane-distinct.
            if (isLoad(instr.op))
                env[std::size_t(instr.dst)] = ValueAbs{Interval::top(), false};
            break;
          case FuncUnit::CTRL:
            break;
        }
    }

    State
    transfer(int block, State env) const
    {
        const BasicBlock &bb = kernel.blocks()[std::size_t(block)];
        for (unsigned i = bb.firstInstr; i < bb.firstInstr + bb.numInstrs; ++i)
            transferInstr(kernel.instrs()[i], env);
        return env;
    }

    static State
    join(const State &a, const State &b)
    {
        State out(a.size());
        for (std::size_t r = 0; r < a.size(); ++r)
            out[r] = a[r].join(b[r]);
        return out;
    }

    static State
    widen(const State &prev, const State &next)
    {
        State out(prev.size());
        for (std::size_t r = 0; r < prev.size(); ++r)
            out[r] = prev[r].widen(next[r]);
        return out;
    }
};

} // namespace

std::unique_ptr<AnalysisResultBase>
ValueRangePass::run(AnalysisContext &ctx)
{
    const Kernel &kernel = ctx.kernel;
    const auto *cfg =
        ctx.manager.resultOf<CfgCheckResult>(kernel, CfgCheckResult::kName);
    auto result = std::make_unique<ValueRangeResult>();
    result->defInterval.assign(kernel.staticInstrs(), Interval::bottom());
    result->defUniform.assign(kernel.staticInstrs(), 0);
    result->regJoin.assign(kernel.regsPerThread(), Interval::bottom());
    result->regUniform.assign(kernel.regsPerThread(), 1);
    if (cfg == nullptr)
        return result;

    const ValueDomain dom{kernel};
    const auto fix = runFixpoint(dom, *cfg);
    result->fixpointIterations = fix.iterations;

    unsigned emitted = 0;
    auto report = [&](DiagKind kind, unsigned i, int reg,
                      std::string message) {
        if (emitted++ < ctx.options.maxDiagsPerPass) {
            ctx.diags.add(kind, kernel.name(), kernel.blockOfInstr(i),
                          static_cast<int>(i), reg, std::move(message));
        }
    };

    // Replay each reachable block once over its stable entry state to
    // attribute a def interval to every instruction.
    for (std::size_t b = 0; b < kernel.blocks().size(); ++b) {
        if (!cfg->reachable[b])
            continue;
        ValueDomain::State env = fix.in[b];
        const BasicBlock &bb = kernel.blocks()[b];
        for (unsigned i = bb.firstInstr; i < bb.firstInstr + bb.numInstrs;
             ++i) {
            const Instruction &instr = kernel.instrs()[i];
            for (const int reg : {instr.dst, instr.srcs[0], instr.srcs[1],
                                  instr.srcs[2]}) {
                if (reg >= 0 && !ValueDomain::inRange(env, reg))
                    report(DiagKind::RegisterOutOfRange, i, reg,
                           "register beyond the declared " +
                               std::to_string(env.size()) +
                               " registers/thread; its value is unknown");
            }
            const bool alu = funcUnitOf(instr.op) == FuncUnit::ALU ||
                             funcUnitOf(instr.op) == FuncUnit::SFU;

            if (alu && instr.dst >= 0 &&
                (instr.op == Opcode::IADD || instr.op == Opcode::FFMA)) {
                const Interval a =
                    instr.op == Opcode::IADD
                        ? ValueDomain::operand(env, instr.srcs[0]).iv
                        : evalInterval(
                              Opcode::IMUL,
                              ValueDomain::operand(env, instr.srcs[0]).iv,
                              ValueDomain::operand(env, instr.srcs[1]).iv,
                              Interval::constant(0));
                const Interval add =
                    instr.op == Opcode::IADD
                        ? ValueDomain::operand(env, instr.srcs[1]).iv
                        : ValueDomain::operand(env, instr.srcs[2]).iv;
                if (provenAddWrap(a, add)) {
                    ++result->overflowDefs;
                    std::ostringstream oss;
                    oss << "sum over " << a.toString() << " + "
                        << add.toString()
                        << " provably wraps around 2^32 on every execution";
                    report(DiagKind::ValueOverflow, i, instr.dst, oss.str());
                }
            }

            ValueDomain::transferInstr(instr, env);
            if (!ValueDomain::inRange(env, instr.dst) ||
                (!alu && !(funcUnitOf(instr.op) == FuncUnit::MEM &&
                           isLoad(instr.op))))
                continue;

            const ValueAbs &def = env[std::size_t(instr.dst)];
            result->defInterval[i] = def.iv;
            result->defUniform[i] = def.uniform ? 1 : 0;
            result->regJoin[std::size_t(instr.dst)] =
                result->regJoin[std::size_t(instr.dst)].join(def.iv);
            if (!def.uniform)
                result->regUniform[std::size_t(instr.dst)] = 0;

            if (alu && def.iv.isSingleton()) {
                ++result->constFoldableDefs;
                std::ostringstream oss;
                oss << "always computes " << def.iv.toString()
                    << "; the def is constant-foldable";
                report(DiagKind::ConstantFoldableDef, i, instr.dst,
                       oss.str());
            }
        }
    }

    // Never-defined registers claim nothing, but report them uniform=false
    // so nobody compresses a launch hash.
    for (std::size_t r = 0; r < result->regJoin.size(); ++r) {
        if (result->regJoin[r].isBottom())
            result->regUniform[r] = 0;
    }
    return result;
}

} // namespace finereg::analysis
