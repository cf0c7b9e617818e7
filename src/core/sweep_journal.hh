/**
 * @file
 * SweepJournal: a durable, append-only record of sweep execution. Each
 * completed job is appended as one JSON line keyed by
 * (kernel-hash, config-hash, policy, seed); on startup a resumed sweep
 * loads the journal, replays finished jobs from their recorded results
 * (bit-identical: every double round-trips through %.17g) and re-runs
 * only missing, failed, or cancelled jobs. The key scheme is
 * content-addressed — the same (kernel, config, policy, seed) always maps
 * to the same key — which is exactly the dedup a resident sweep service
 * needs for its result cache.
 *
 * File format (extension .sweep.jsonl):
 *   line 1   {"schema":"finereg-sweep-journal","version":1}
 *   line 2.. one flat JSON object per completed job
 * A version mismatch is rejected with a clear error, never misparsed;
 * trailing garbage (a line torn by a crash mid-append) is dropped with a
 * warning, keeping every intact entry before it.
 */

#ifndef FINEREG_CORE_SWEEP_JOURNAL_HH
#define FINEREG_CORE_SWEEP_JOURNAL_HH

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/simulator.hh"

namespace finereg
{

class Kernel;
struct GpuConfig;

/** Stable FNV-1a fingerprint of a finalized kernel: launch geometry plus
 * every static instruction (opcode, operands, control flow, memory
 * pattern). Two kernels with the same fingerprint run identically. */
std::uint64_t kernelFingerprint(const Kernel &kernel);

/**
 * Stable FNV-1a fingerprint over every result-affecting GpuConfig knob
 * EXCEPT the policy kind and the seed (those are separate key parts) and
 * the runtime-only cancel token, which never changes simulated results.
 */
std::uint64_t configFingerprint(const GpuConfig &config);

/** The content-addressed identity of one sweep job. */
struct SweepJobKey
{
    std::uint64_t kernelHash = 0;
    std::uint64_t configHash = 0;
    std::string policy;
    std::uint64_t seed = 0;

    /** "k<hex>-c<hex>-<policy>-s<hex>" — the journal's key string. */
    std::string toString() const;
};

/** Build the key for running @p kernel under @p config. */
SweepJobKey makeSweepJobKey(const Kernel &kernel, const GpuConfig &config);

/** One journal line. */
struct JournalEntry
{
    std::string key;
    std::string app;    ///< Suite abbreviation (repro convenience).
    std::string status; ///< "ok" or "failed".
    double wallMs = 0.0;
    SimResult result; ///< Full condensed result (archState excluded).

    bool ok() const { return status == "ok"; }
};

class SweepJournal
{
  public:
    static constexpr unsigned kVersion = 1;
    static constexpr const char *kSchema = "finereg-sweep-journal";

    /**
     * Open @p path for resume + append: load any existing entries
     * (validating the schema header) and position for appending. Creates
     * the file with a fresh header when it does not exist. Returns null
     * and sets @p error on a stale/foreign/corrupt header.
     */
    static std::unique_ptr<SweepJournal> open(const std::string &path,
                                              std::string &error);

    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    const std::string &path() const { return path_; }

    /** Latest entry for @p key, or nullptr. Thread-safe. */
    const JournalEntry *find(const std::string &key) const;

    /** Append one entry and flush it to disk. Thread-safe; later entries
     * for the same key supersede earlier ones on future loads. */
    void append(const JournalEntry &entry);

    /** Number of distinct keys loaded + appended so far. */
    std::size_t size() const;

    /** Distinct keys whose latest status is "ok". */
    std::size_t completedCount() const;

    /** All current entries (latest per key), unordered. */
    std::vector<JournalEntry> entries() const;

  private:
    SweepJournal(std::string path, std::FILE *file);

    std::string path_;
    std::FILE *file_;

    mutable std::mutex mutex_;
    std::map<std::string, JournalEntry> latest_;
};

/** Serialize one entry as a single JSON line (no trailing newline). */
std::string journalEntryToJson(const JournalEntry &entry);

/** Parse one journal line; nullopt on malformed input. */
std::optional<JournalEntry> journalEntryFromJson(const std::string &line);

} // namespace finereg

#endif // FINEREG_CORE_SWEEP_JOURNAL_HH
