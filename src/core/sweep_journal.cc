#include "core/sweep_journal.hh"

#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "core/gpu_config.hh"
#include "isa/kernel.hh"

namespace finereg
{

namespace
{

// ---- FNV-1a hashing --------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void
mix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

void
mixDouble(std::uint64_t &h, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    mix(h, bits);
}

void
mixString(std::uint64_t &h, const std::string &s)
{
    mix(h, s.size());
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
    }
}

// ---- Minimal flat JSON -----------------------------------------------------

/**
 * Scanner for the exact JSON subset the journal writes: one flat object
 * of string keys mapping to strings, numbers, or booleans. Number tokens
 * are kept as raw text so integer round-trips are exact (we wrote them,
 * we re-read them — no double conversion in between).
 */
class FlatJson
{
  public:
    static std::optional<std::map<std::string, std::string>>
    parse(const std::string &line)
    {
        FlatJson p(line);
        std::map<std::string, std::string> out;
        p.ws();
        if (!p.eat('{'))
            return std::nullopt;
        p.ws();
        if (p.eat('}'))
            return out;
        for (;;) {
            p.ws();
            std::string key;
            if (!p.string(key))
                return std::nullopt;
            p.ws();
            if (!p.eat(':'))
                return std::nullopt;
            p.ws();
            std::string value;
            if (p.peek() == '"') {
                if (!p.string(value))
                    return std::nullopt;
            } else if (!p.scalar(value)) {
                return std::nullopt;
            }
            out[key] = value;
            p.ws();
            if (p.eat(','))
                continue;
            if (p.eat('}'))
                return out;
            return std::nullopt;
        }
    }

  private:
    explicit FlatJson(const std::string &s) : s_(s) {}

    char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }

    bool
    eat(char c)
    {
        if (peek() != c)
            return false;
        ++i_;
        return true;
    }

    void
    ws()
    {
        while (i_ < s_.size() &&
               (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\r'))
            ++i_;
    }

    bool
    string(std::string &out)
    {
        if (!eat('"'))
            return false;
        out.clear();
        while (i_ < s_.size()) {
            const char c = s_[i_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (i_ >= s_.size())
                    return false;
                const char e = s_[i_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  default: return false;
                }
            } else {
                out += c;
            }
        }
        return false;
    }

    bool
    scalar(std::string &out)
    {
        const std::size_t start = i_;
        while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}' &&
               s_[i_] != ' ' && s_[i_] != '\t')
            ++i_;
        out = s_.substr(start, i_ - start);
        return !out.empty();
    }

    const std::string &s_;
    std::size_t i_ = 0;
};

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            // Drop other control characters rather than emit invalid JSON.
            if (static_cast<unsigned char>(c) >= 0x20)
                out += c;
        }
    }
    return out;
}

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::uint64_t
getU64(const std::map<std::string, std::string> &m, const char *key)
{
    const auto it = m.find(key);
    return it == m.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

double
getDouble(const std::map<std::string, std::string> &m, const char *key)
{
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

bool
getBool(const std::map<std::string, std::string> &m, const char *key)
{
    const auto it = m.find(key);
    return it != m.end() && it->second == "true";
}

std::string
getString(const std::map<std::string, std::string> &m, const char *key)
{
    const auto it = m.find(key);
    return it == m.end() ? std::string() : it->second;
}

SimErrorKind
parseErrorKind(const std::string &name)
{
    static constexpr SimErrorKind kKinds[] = {
        SimErrorKind::None,
        SimErrorKind::Config,
        SimErrorKind::InvariantViolation,
        SimErrorKind::Deadlock,
        SimErrorKind::WorkerException,
        SimErrorKind::Cancelled,
        SimErrorKind::Timeout,
    };
    for (const SimErrorKind kind : kKinds) {
        if (name == simErrorKindName(kind))
            return kind;
    }
    return SimErrorKind::None;
}

} // namespace

// ---- Fingerprints ----------------------------------------------------------

std::uint64_t
kernelFingerprint(const Kernel &kernel)
{
    std::uint64_t h = kFnvOffset;
    mixString(h, kernel.name());
    mix(h, kernel.regsPerThread());
    mix(h, kernel.threadsPerCta());
    mix(h, kernel.shmemPerCta());
    mix(h, kernel.gridCtas());
    mix(h, kernel.instrs().size());
    for (const Instruction &in : kernel.instrs()) {
        mix(h, static_cast<std::uint64_t>(in.op));
        mix(h, static_cast<std::uint64_t>(in.dst));
        for (const int src : in.srcs)
            mix(h, static_cast<std::uint64_t>(src));
        mix(h, static_cast<std::uint64_t>(in.targetBlock));
        mixDouble(h, in.divergeProb);
        mixDouble(h, in.takenProb);
        mix(h, in.tripCount);
        mix(h, in.mem.region);
        mix(h, in.mem.footprint);
        mix(h, in.mem.transactions);
        mix(h, in.mem.stride);
        mixDouble(h, in.mem.reuse);
        mix(h, in.mem.shared ? 1 : 0);
    }
    mix(h, kernel.blocks().size());
    for (const BasicBlock &b : kernel.blocks()) {
        mix(h, b.firstInstr);
        mix(h, b.numInstrs);
        for (const int s : b.succs)
            mix(h, static_cast<std::uint64_t>(s));
    }
    return h;
}

std::uint64_t
configFingerprint(const GpuConfig &config)
{
    std::uint64_t h = kFnvOffset;
    mix(h, config.numSms);
    mixDouble(h, config.clockGhz);
    mix(h, config.maxCycles);
    mix(h, config.usageTracking ? 1 : 0);
    mix(h, config.stallProbe ? 1 : 0);
    mix(h, config.trackValues ? 1 : 0);

    const SmConfig &sm = config.sm;
    mix(h, sm.maxCtas);
    mix(h, sm.maxWarps);
    mix(h, sm.maxThreads);
    mix(h, sm.numSchedulers);
    mix(h, static_cast<std::uint64_t>(sm.sched));
    mix(h, sm.regFileBytes);
    mix(h, sm.shmemBytes);
    mix(h, sm.memPortsPerCycle);
    mix(h, sm.aluLatency);
    mix(h, sm.sfuLatency);
    mix(h, sm.sharedLatency);
    mix(h, sm.branchLatency);
    mix(h, sm.maxResidentCtas);
    mix(h, sm.maxResidentWarps);

    auto mix_cache = [&](const CacheConfig &c) {
        mix(h, c.sizeBytes);
        mix(h, c.assoc);
        mix(h, c.lineBytes);
        mix(h, c.hitLatency);
        mix(h, c.mshrEntries);
        mix(h, c.writeAllocate ? 1 : 0);
    };
    mix_cache(config.mem.l1);
    mix_cache(config.mem.l2);
    mixDouble(h, config.mem.dram.bytesPerCycle);
    mix(h, config.mem.dram.accessLatency);
    mixDouble(h, config.mem.l2TransactionsPerCycle);

    const PolicyConfig &p = config.policy;
    mix(h, p.acrfBytes);
    mix(h, p.pcrfBytes);
    mix(h, p.bitvecCacheEntries);
    mix(h, p.pcrfAccessLatency);
    mix(h, p.switchBaseLatency);
    mix(h, p.fullContextBackup ? 1 : 0);
    mix(h, p.zeroSwitchLatency ? 1 : 0);
    mixDouble(h, p.pendingGrowthFactor);
    mixDouble(h, p.srpRatio);
    mixDouble(h, p.brsFraction);
    mix(h, p.maxDramPendingCtas);
    mix(h, p.unifiedMemory ? 1 : 0);
    mix(h, p.umBytes);
    mix(h, static_cast<std::uint64_t>(p.dropLiveReg));

    // Verification knobs that perturb simulated behaviour.
    const VerifyConfig &v = config.verify;
    mix(h, v.auditInterval);
    mix(h, v.watchdogCycles);
    // The five values a since-removed fault-injection config carried,
    // at their fault-free defaults. Mixing them keeps every fingerprint
    // stable, so existing sweep journals and the stamped perfbench
    // reference still match.
    mix(h, 0);
    mixDouble(h, 0.01);
    mix(h, 400);
    mixDouble(h, 0.02);
    mixDouble(h, 0.05);
    return h;
}

std::string
SweepJobKey::toString() const
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "k%016" PRIx64 "-c%016" PRIx64 "-%s-s%" PRIx64,
                  kernelHash, configHash, policy.c_str(), seed);
    return buf;
}

SweepJobKey
makeSweepJobKey(const Kernel &kernel, const GpuConfig &config)
{
    SweepJobKey key;
    key.kernelHash = kernelFingerprint(kernel);
    key.configHash = configFingerprint(config);
    key.policy = policyKindName(config.policy.kind);
    key.seed = config.seed;
    return key;
}

// ---- Entry <-> JSON --------------------------------------------------------

std::string
journalEntryToJson(const JournalEntry &entry)
{
    const SimResult &r = entry.result;
    std::ostringstream oss;
    oss << "{\"key\":\"" << escape(entry.key) << '"'
        << ",\"app\":\"" << escape(entry.app) << '"'
        << ",\"status\":\"" << escape(entry.status) << '"'
        << ",\"wall_ms\":" << fmtDouble(entry.wallMs)
        << ",\"kernel\":\"" << escape(r.kernelName) << '"'
        << ",\"policy\":\"" << escape(r.policyName) << '"'
        << ",\"cycles\":" << r.cycles
        << ",\"instructions\":" << r.instructions
        << ",\"ipc\":" << fmtDouble(r.ipc)
        << ",\"hit_cycle_limit\":" << (r.hitCycleLimit ? "true" : "false")
        << ",\"completed_ctas\":" << r.completedCtas
        << ",\"avg_resident_ctas\":" << fmtDouble(r.avgResidentCtas)
        << ",\"avg_active_ctas\":" << fmtDouble(r.avgActiveCtas)
        << ",\"avg_active_threads\":" << fmtDouble(r.avgActiveThreads)
        << ",\"dram_bytes_data\":" << r.dramBytesData
        << ",\"dram_bytes_cta\":" << r.dramBytesCtaContext
        << ",\"dram_bytes_bitvec\":" << r.dramBytesBitvec
        << ",\"depletion_stall_fraction\":"
        << fmtDouble(r.depletionStallFraction)
        << ",\"l1_hits\":" << r.l1Hits
        << ",\"l1_misses\":" << r.l1Misses
        << ",\"rf_usage_mean\":" << fmtDouble(r.rfUsageMean)
        << ",\"rf_usage_min\":" << fmtDouble(r.rfUsageMin)
        << ",\"rf_usage_max\":" << fmtDouble(r.rfUsageMax)
        << ",\"stall_episode_mean\":" << fmtDouble(r.stallEpisodeMean)
        << ",\"stall_episodes\":" << r.stallEpisodes
        << ",\"energy_dram_dyn\":" << fmtDouble(r.energy.dramDyn)
        << ",\"energy_rf_dyn\":" << fmtDouble(r.energy.rfDyn)
        << ",\"energy_others_dyn\":" << fmtDouble(r.energy.othersDyn)
        << ",\"energy_leakage\":" << fmtDouble(r.energy.leakage)
        << ",\"energy_finereg\":" << fmtDouble(r.energy.fineregOverhead)
        << ",\"energy_cta_switching\":" << fmtDouble(r.energy.ctaSwitching)
        << ",\"policy_storage_bits\":" << r.policyStorageBits
        << ",\"loop_iterations\":" << r.hostPerf.loopIterations
        << ",\"skipped_cycles\":" << r.hostPerf.skippedCycles
        << ",\"arena_allocs\":" << r.hostPerf.arenaAllocs
        << ",\"bitvec_word_ops\":" << r.hostPerf.bitvecWordOps
        << ",\"full_audits\":" << r.hostPerf.fullAudits
        << ",\"edge_audits\":" << r.hostPerf.edgeAudits
        << ",\"failed\":" << (r.failed ? "true" : "false")
        << ",\"error_kind\":\"" << simErrorKindName(r.error.kind) << '"'
        << ",\"error_message\":\"" << escape(r.error.message) << "\"}";
    return oss.str();
}

std::optional<JournalEntry>
journalEntryFromJson(const std::string &line)
{
    const auto fields = FlatJson::parse(line);
    if (!fields || fields->find("key") == fields->end() ||
        fields->find("status") == fields->end())
        return std::nullopt;
    const auto &m = *fields;

    JournalEntry entry;
    entry.key = getString(m, "key");
    entry.app = getString(m, "app");
    entry.status = getString(m, "status");
    entry.wallMs = getDouble(m, "wall_ms");

    SimResult &r = entry.result;
    r.kernelName = getString(m, "kernel");
    r.policyName = getString(m, "policy");
    r.cycles = getU64(m, "cycles");
    r.instructions = getU64(m, "instructions");
    r.ipc = getDouble(m, "ipc");
    r.hitCycleLimit = getBool(m, "hit_cycle_limit");
    r.completedCtas = static_cast<unsigned>(getU64(m, "completed_ctas"));
    r.avgResidentCtas = getDouble(m, "avg_resident_ctas");
    r.avgActiveCtas = getDouble(m, "avg_active_ctas");
    r.avgActiveThreads = getDouble(m, "avg_active_threads");
    r.dramBytesData = getU64(m, "dram_bytes_data");
    r.dramBytesCtaContext = getU64(m, "dram_bytes_cta");
    r.dramBytesBitvec = getU64(m, "dram_bytes_bitvec");
    r.depletionStallFraction = getDouble(m, "depletion_stall_fraction");
    r.l1Hits = getU64(m, "l1_hits");
    r.l1Misses = getU64(m, "l1_misses");
    r.rfUsageMean = getDouble(m, "rf_usage_mean");
    r.rfUsageMin = getDouble(m, "rf_usage_min");
    r.rfUsageMax = getDouble(m, "rf_usage_max");
    r.stallEpisodeMean = getDouble(m, "stall_episode_mean");
    r.stallEpisodes = getU64(m, "stall_episodes");
    r.energy.dramDyn = getDouble(m, "energy_dram_dyn");
    r.energy.rfDyn = getDouble(m, "energy_rf_dyn");
    r.energy.othersDyn = getDouble(m, "energy_others_dyn");
    r.energy.leakage = getDouble(m, "energy_leakage");
    r.energy.fineregOverhead = getDouble(m, "energy_finereg");
    r.energy.ctaSwitching = getDouble(m, "energy_cta_switching");
    r.policyStorageBits = getU64(m, "policy_storage_bits");
    // Host counters are deterministic too; entries written before they
    // were journaled load them as 0.
    r.hostPerf.loopIterations = getU64(m, "loop_iterations");
    r.hostPerf.skippedCycles = getU64(m, "skipped_cycles");
    r.hostPerf.arenaAllocs = getU64(m, "arena_allocs");
    r.hostPerf.bitvecWordOps = getU64(m, "bitvec_word_ops");
    r.hostPerf.fullAudits = getU64(m, "full_audits");
    r.hostPerf.edgeAudits = getU64(m, "edge_audits");
    r.failed = getBool(m, "failed");
    r.error.kind = parseErrorKind(getString(m, "error_kind"));
    r.error.message = getString(m, "error_message");
    if (r.failed)
        r.failureReason = r.error.toString();
    r.fromJournal = true;
    return entry;
}

// ---- SweepJournal ----------------------------------------------------------

SweepJournal::SweepJournal(std::string path, std::FILE *file)
    : path_(std::move(path)), file_(file)
{
}

SweepJournal::~SweepJournal()
{
    if (file_)
        std::fclose(file_);
}

std::unique_ptr<SweepJournal>
SweepJournal::open(const std::string &path, std::string &error)
{
    error.clear();
    std::map<std::string, JournalEntry> loaded;

    std::ifstream in(path);
    const bool exists = in.good();
    if (exists) {
        std::string line;
        if (!std::getline(in, line)) {
            error = "journal " + path + " is empty (missing schema header)";
            return nullptr;
        }
        const auto header = FlatJson::parse(line);
        if (!header) {
            error = "journal " + path +
                    " has an unparsable header line; refusing to misparse "
                    "it — delete the file or pass a fresh --resume path";
            return nullptr;
        }
        if (getString(*header, "schema") != kSchema) {
            error = "journal " + path + " has schema '" +
                    getString(*header, "schema") + "', expected '" +
                    kSchema + "'";
            return nullptr;
        }
        const std::uint64_t version = getU64(*header, "version");
        if (version != kVersion) {
            error = "journal " + path + " was written with schema version " +
                    std::to_string(version) + "; this build expects version " +
                    std::to_string(kVersion) +
                    " — stale journals are rejected, start a fresh sweep";
            return nullptr;
        }
        std::size_t line_no = 1;
        while (std::getline(in, line)) {
            ++line_no;
            if (line.empty())
                continue;
            auto entry = journalEntryFromJson(line);
            if (!entry) {
                // A torn final line (crash mid-append) is expected; keep
                // every intact entry before it.
                FINEREG_WARN("journal ", path, ": dropping malformed line ",
                             line_no);
                continue;
            }
            loaded[entry->key] = std::move(*entry);
        }
        in.close();
    }

    std::FILE *file = std::fopen(path.c_str(), exists ? "a" : "w");
    if (!file) {
        error = "cannot open journal " + path + " for append: " +
                std::strerror(errno);
        return nullptr;
    }
    if (!exists) {
        std::fprintf(file, "{\"schema\":\"%s\",\"version\":%u}\n", kSchema,
                     kVersion);
        std::fflush(file);
    }

    std::unique_ptr<SweepJournal> journal(
        new SweepJournal(path, file));
    journal->latest_ = std::move(loaded);
    return journal;
}

const JournalEntry *
SweepJournal::find(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = latest_.find(key);
    return it == latest_.end() ? nullptr : &it->second;
}

void
SweepJournal::append(const JournalEntry &entry)
{
    const std::string line = journalEntryToJson(entry);
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(file_, "%s\n", line.c_str());
    std::fflush(file_);
    latest_[entry.key] = entry;
}

std::size_t
SweepJournal::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return latest_.size();
}

std::size_t
SweepJournal::completedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto &[key, entry] : latest_)
        n += entry.ok() ? 1 : 0;
    return n;
}

std::vector<JournalEntry>
SweepJournal::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<JournalEntry> out;
    out.reserve(latest_.size());
    for (const auto &[key, entry] : latest_)
        out.push_back(entry);
    return out;
}

} // namespace finereg
