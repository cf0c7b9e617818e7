/**
 * @file
 * Typed, recoverable simulation errors. Library code that detects a broken
 * bookkeeping invariant, an illegal configuration, or a wedged simulation
 * throws SimException instead of aborting the process; Simulator::run
 * catches it and surfaces the SimError on the SimResult so embedders and
 * the bench harness get a structured report instead of a dead process.
 */

#ifndef FINEREG_VERIFY_SIM_ERROR_HH
#define FINEREG_VERIFY_SIM_ERROR_HH

#include <stdexcept>
#include <string>

#include "common/types.hh"

namespace finereg
{

enum class SimErrorKind : unsigned char
{
    None,               ///< No error (default state on SimResult).
    Config,             ///< Illegal configuration or parameters.
    InvariantViolation, ///< Simulator state failed a bookkeeping invariant.
    Deadlock,           ///< Watchdog: no forward progress for too long.
    WorkerException,    ///< Non-SimException escaped a parallel job.
    Cancelled,          ///< Job skipped before it started (fail-fast/stop).
    Timeout,            ///< Wall-clock deadline expired (JobGuard monitor).
};

const char *simErrorKindName(SimErrorKind kind);

/** Structured description of a failed run. */
struct SimError
{
    SimErrorKind kind = SimErrorKind::None;

    /** Human-readable one-line description. */
    std::string message;

    /** Short invariant identifier (e.g. "pcrf-chain", "acrf-accounting");
     * empty for non-invariant errors. */
    std::string invariant;

    /** Grid CTA the violation names, or kInvalidId. */
    GridCtaId cta = kInvalidId;

    /** SM the violation names, or kInvalidId. */
    std::uint32_t sm = kInvalidId;

    /** Simulated cycle at which the error was raised (0 for config
     * errors thrown before simulation starts). */
    Cycle cycle = 0;

    /** Multi-line diagnostic dump (watchdog stall summary); may be empty. */
    std::string diagnostic;

    /** One-line rendering: "kind[/invariant]: message (cta N, sm M, cycle C)". */
    std::string toString() const;
};

/** Carrier exception for SimError. what() returns error().toString(). */
class SimException : public std::runtime_error
{
  public:
    explicit SimException(SimError error);

    const SimError &error() const { return error_; }

  private:
    SimError error_;
};

/** Throw a Config-kind SimException. */
[[noreturn]] void raiseConfigError(std::string message);

/**
 * Throw an InvariantViolation-kind SimException naming @p invariant and
 * (optionally) the CTA/SM/cycle involved.
 */
[[noreturn]] void raiseInvariant(std::string invariant, std::string message,
                                 GridCtaId cta = kInvalidId,
                                 std::uint32_t sm = kInvalidId,
                                 Cycle cycle = 0);

/** Throw a Deadlock-kind SimException carrying a diagnostic dump. */
[[noreturn]] void raiseDeadlock(std::string message, Cycle cycle,
                                std::string diagnostic);

/** Throw a Timeout-kind SimException (cooperative wall-clock cancel). */
[[noreturn]] void raiseTimeout(std::string message, Cycle cycle,
                               std::string diagnostic = {});

} // namespace finereg

#endif // FINEREG_VERIFY_SIM_ERROR_HH
