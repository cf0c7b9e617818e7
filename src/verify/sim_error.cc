#include "verify/sim_error.hh"

#include <sstream>
#include <utility>

namespace finereg
{

const char *
simErrorKindName(SimErrorKind kind)
{
    switch (kind) {
      case SimErrorKind::None:
        return "none";
      case SimErrorKind::Config:
        return "config";
      case SimErrorKind::InvariantViolation:
        return "invariant-violation";
      case SimErrorKind::Deadlock:
        return "deadlock";
      case SimErrorKind::WorkerException:
        return "worker-exception";
      case SimErrorKind::Cancelled:
        return "cancelled";
      case SimErrorKind::Timeout:
        return "timeout";
    }
    return "unknown";
}

std::string
SimError::toString() const
{
    std::ostringstream oss;
    oss << simErrorKindName(kind);
    if (!invariant.empty())
        oss << "/" << invariant;
    oss << ": " << message;
    bool first = true;
    auto tag = [&](const char *name, std::uint64_t value, bool show) {
        if (!show)
            return;
        oss << (first ? " (" : ", ") << name << " " << value;
        first = false;
    };
    tag("cta", cta, cta != kInvalidId);
    tag("sm", sm, sm != kInvalidId);
    tag("cycle", cycle, cycle != 0);
    if (!first)
        oss << ")";
    return oss.str();
}

SimException::SimException(SimError error)
    : std::runtime_error(error.toString()), error_(std::move(error))
{
}

void
raiseConfigError(std::string message)
{
    SimError error;
    error.kind = SimErrorKind::Config;
    error.message = std::move(message);
    throw SimException(std::move(error));
}

void
raiseInvariant(std::string invariant, std::string message, GridCtaId cta,
               std::uint32_t sm, Cycle cycle)
{
    SimError error;
    error.kind = SimErrorKind::InvariantViolation;
    error.invariant = std::move(invariant);
    error.message = std::move(message);
    error.cta = cta;
    error.sm = sm;
    error.cycle = cycle;
    throw SimException(std::move(error));
}

void
raiseDeadlock(std::string message, Cycle cycle, std::string diagnostic)
{
    SimError error;
    error.kind = SimErrorKind::Deadlock;
    error.message = std::move(message);
    error.cycle = cycle;
    error.diagnostic = std::move(diagnostic);
    throw SimException(std::move(error));
}

void
raiseTimeout(std::string message, Cycle cycle, std::string diagnostic)
{
    SimError error;
    error.kind = SimErrorKind::Timeout;
    error.message = std::move(message);
    error.cycle = cycle;
    error.diagnostic = std::move(diagnostic);
    throw SimException(std::move(error));
}

} // namespace finereg
