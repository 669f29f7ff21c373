#include "search/report_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"

namespace qarch::search {

namespace {

// Graph fingerprints are raw bytes (packed integers + doubles), not UTF-8;
// they cross the JSON boundary hex-encoded.
std::string hex_encode(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xf]);
  }
  return out;
}

std::string hex_decode(const std::string& hex) {
  QARCH_REQUIRE(hex.size() % 2 == 0, "odd-length hex string");
  const auto nibble = [](char c) -> unsigned {
    if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
    throw InvalidArgument("invalid hex digit");
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2)
    out.push_back(static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  return out;
}

// Whole-file-or-nothing JSON publish shared by every file this module
// writes: write to a unique tmp name (pid + process-wide counter, so
// concurrent writers — other processes AND other services in this process —
// never interleave into the same scratch file), fsync BEFORE the rename (a
// rename only orders metadata: without the data flush a crash right after
// the publish can leave the DESTINATION pointing at a zero-length or
// truncated file, exactly what the crash-resume path must never see), then
// rename so readers see either the old complete file or the new one. Rename
// failures (e.g. a cross-filesystem cache_path target) surface as errors
// rather than silently dropping the persist. The directory fsync afterwards
// makes the rename itself durable; it is best-effort because some
// filesystems refuse directory fds.
void write_atomically(const json::Value& value, const std::string& path,
                      const std::string& what) {
  static std::atomic<unsigned> save_counter{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) +
                          "." + std::to_string(save_counter.fetch_add(1));
  const std::string payload = value.dump(2) + '\n';
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) throw Error(what + ": cannot open " + tmp);
  bool ok =
      std::fwrite(payload.data(), 1, payload.size(), out) == payload.size();
  ok = std::fflush(out) == 0 && ok;
  ok = ::fsync(::fileno(out)) == 0 && ok;
  ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw Error(what + ": write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error(what + ": cannot rename " + tmp + " to " + path);
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dir_fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

/// The whole file at `path`, or nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One persisted store: its envelope tag and its entry codec. The envelope,
/// the version gate, the write and the tolerant load exist only here (the
/// discipline is described in report_io.hpp).
template <typename Entry>
struct VersionedStore {
  const char* format;  ///< the envelope's "format" tag
  const char* noun;    ///< names the file in errors and warnings
  json::Value (*encode)(const Entry&);
  Entry (*decode)(const json::Value&);

  [[nodiscard]] json::Value to_json(const std::vector<Entry>& entries,
                                    const std::string& code_version) const {
    json::Value obj = json::Value::object();
    obj.set("format", format);
    obj.set("code_version", code_version);
    json::Value list = json::Value::array();
    for (const Entry& e : entries) list.push_back(encode(e));
    obj.set("entries", std::move(list));
    return obj;
  }

  [[nodiscard]] std::vector<Entry> from_json(
      const json::Value& value, const std::string& code_version) const {
    std::vector<Entry> entries;
    if (!value.contains("format") || value.at("format").as_string() != format)
      return entries;
    if (!value.contains("code_version") ||
        value.at("code_version").as_string() != code_version)
      return entries;  // other semantics: not comparable, start cold
    if (!value.contains("entries")) return entries;
    const json::Value& list = value.at("entries");
    for (std::size_t i = 0; i < list.size(); ++i) {
      try {
        entries.push_back(decode(list.at(i)));
      } catch (const std::exception&) {
        // One mangled entry must not poison the rest of the warm start.
      }
    }
    return entries;
  }

  void save(const std::vector<Entry>& entries, const std::string& path,
            const std::string& code_version) const {
    write_atomically(to_json(entries, code_version), path, noun);
  }

  [[nodiscard]] std::vector<Entry> load(
      const std::string& path, const std::string& code_version) const {
    const std::optional<std::string> text = read_file(path);
    if (!text) return {};  // no file yet: the first run starts cold once
    try {
      return from_json(json::parse(*text), code_version);
    } catch (const std::exception& e) {
      log::warn("ignoring corrupt ", noun, " ", path, ": ", e.what());
      return {};
    }
  }
};

json::Value mixer_to_json(const qaoa::MixerSpec& mixer) {
  json::Value gates = json::Value::array();
  for (circuit::GateKind g : mixer.gates)
    gates.push_back(circuit::gate_name(g));
  return gates;
}

qaoa::MixerSpec mixer_from_json(const json::Value& gates) {
  qaoa::MixerSpec mixer;
  for (std::size_t i = 0; i < gates.size(); ++i)
    mixer.gates.push_back(circuit::gate_from_name(gates.at(i).as_string()));
  return mixer;
}

// The RunKey fields. Spec tags are written only when non-default, so files
// produced by default-objective runs stay byte-compatible with older
// readers.
void run_key_to_json(const RunKey& key, json::Value& obj) {
  obj.set("graph_fp", hex_encode(key.graph_fp));
  obj.set("training_evals", key.training_evals);
  obj.set("engine", key.engine);
  if (!key.objective.empty()) obj.set("objective", key.objective);
  if (!key.hamiltonian.empty()) obj.set("hamiltonian", key.hamiltonian);
}

void run_key_from_json(const json::Value& obj, RunKey& key) {
  key.graph_fp = hex_decode(obj.at("graph_fp").as_string());
  key.training_evals =
      json::as_uint(obj.at("training_evals"), "training_evals");
  key.engine = obj.at("engine").as_string();
  if (obj.contains("objective"))
    key.objective = obj.at("objective").as_string();
  if (obj.contains("hamiltonian"))
    key.hamiltonian = obj.at("hamiltonian").as_string();
}

json::Value cache_entry_to_json(const CacheEntry& e) {
  json::Value obj = json::Value::object();
  run_key_to_json(e, obj);
  obj.set("result", candidate_to_json(e.result));
  return obj;
}

CacheEntry cache_entry_from_json(const json::Value& obj) {
  CacheEntry e;
  run_key_from_json(obj, e);
  e.result = candidate_from_json(obj.at("result"));
  return e;
}

json::Value plan_to_json(const qtensor::CachedPlan& plan) {
  json::Value obj = json::Value::object();
  obj.set("shape_key", plan.shape_key);
  // 64-bit hashes do not round-trip through JSON doubles; go via string.
  obj.set("structure_hash", std::to_string(plan.structure_hash));
  obj.set("heuristic", plan.heuristic);
  json::Value order = json::Value::array();
  for (qtensor::VarId v : plan.order) order.push_back(v);
  obj.set("order", std::move(order));
  return obj;
}

qtensor::CachedPlan plan_from_json(const json::Value& obj) {
  qtensor::CachedPlan plan;
  plan.shape_key = obj.at("shape_key").as_string();
  plan.structure_hash =
      json::parse_u64(obj.at("structure_hash").as_string(), "structure_hash");
  plan.heuristic = obj.at("heuristic").as_string();
  const json::Value& order = obj.at("order");
  for (std::size_t k = 0; k < order.size(); ++k)
    plan.order.push_back(json::as_uint(order.at(k), "plan variable"));
  return plan;
}

json::Value checkpoint_to_json(const TrainingCheckpoint& e) {
  json::Value obj = json::Value::object();
  run_key_to_json(e, obj);
  obj.set("mixer", mixer_to_json(e.mixer));
  obj.set("p", e.p);
  obj.set("state", optim_state_to_json(e.state));
  return obj;
}

TrainingCheckpoint checkpoint_from_json(const json::Value& obj) {
  TrainingCheckpoint e;
  run_key_from_json(obj, e);
  e.mixer = mixer_from_json(obj.at("mixer"));
  e.p = json::as_uint(obj.at("p"), "p");
  e.state = optim_state_from_json(obj.at("state"));
  return e;
}

const VersionedStore<CacheEntry> kResultStore{
    "qarch-result-cache", "result cache", cache_entry_to_json,
    cache_entry_from_json};
const VersionedStore<qtensor::CachedPlan> kPlanStore{
    "qarch-plan-cache", "plan cache", plan_to_json, plan_from_json};
const VersionedStore<TrainingCheckpoint> kCheckpointStore{
    "qarch-checkpoints", "checkpoint file", checkpoint_to_json,
    checkpoint_from_json};

// Optimizer internals may legitimately hold non-finite doubles (an untouched
// +inf incumbent before any restart completes). JSON has no inf/nan tokens,
// so those cross as tagged strings; everything finite stays a plain number
// (%.17g — bit-exact round trip).
json::Value finite_or_tag(double v) {
  if (std::isfinite(v)) return {v};
  if (std::isnan(v)) return {"nan"};
  return {v > 0 ? "inf" : "-inf"};
}

double number_or_tag(const json::Value& v) {
  if (v.type() == json::Value::Type::String) {
    const std::string& s = v.as_string();
    if (s == "inf") return std::numeric_limits<double>::infinity();
    if (s == "-inf") return -std::numeric_limits<double>::infinity();
    if (s == "nan") return std::numeric_limits<double>::quiet_NaN();
    throw InvalidArgument("bad tagged number: " + s);
  }
  return v.as_number();
}

}  // namespace

json::Value candidate_to_json(const CandidateResult& candidate) {
  json::Value obj = json::Value::object();
  obj.set("mixer", mixer_to_json(candidate.mixer));
  obj.set("p", candidate.p);
  obj.set("energy", candidate.energy);
  obj.set("ratio", candidate.ratio);
  obj.set("sampled_ratio", candidate.sampled_ratio);
  obj.set("evaluations", candidate.evaluations);
  obj.set("queue_seconds", candidate.queue_seconds);
  obj.set("eval_seconds", candidate.eval_seconds);
  obj.set("from_cache", candidate.from_cache);
  json::Value theta = json::Value::array();
  for (double t : candidate.theta) theta.push_back(t);
  obj.set("theta", std::move(theta));
  return obj;
}

CandidateResult candidate_from_json(const json::Value& value) {
  CandidateResult c;
  c.mixer = mixer_from_json(value.at("mixer"));
  c.p = json::as_uint(value.at("p"), "p");
  c.energy = value.at("energy").as_number();
  c.ratio = value.at("ratio").as_number();
  c.sampled_ratio = value.at("sampled_ratio").as_number();
  c.evaluations = json::as_uint(value.at("evaluations"), "evaluations");
  // Accounting fields postdate the original schema; absent in old reports.
  if (value.contains("queue_seconds"))
    c.queue_seconds = value.at("queue_seconds").as_number();
  if (value.contains("eval_seconds"))
    c.eval_seconds = value.at("eval_seconds").as_number();
  if (value.contains("from_cache"))
    c.from_cache = value.at("from_cache").as_bool();
  const json::Value& theta = value.at("theta");
  for (std::size_t i = 0; i < theta.size(); ++i)
    c.theta.push_back(theta.at(i).as_number());
  return c;
}

json::Value report_to_json(const SearchReport& report) {
  json::Value obj = json::Value::object();
  obj.set("best", candidate_to_json(report.best));
  json::Value all = json::Value::array();
  for (const CandidateResult& c : report.evaluated)
    all.push_back(candidate_to_json(c));
  obj.set("evaluated", std::move(all));
  obj.set("seconds", report.seconds);
  obj.set("num_candidates", report.num_candidates);
  obj.set("cache_hits", report.cache_hits);
  obj.set("cache_misses", report.cache_misses);
  json::Value rej = json::Value::object();
  for (const auto& [name, count] : report.rejections) rej.set(name, count);
  obj.set("rejections", std::move(rej));
  return obj;
}

SearchReport report_from_json(const json::Value& value) {
  SearchReport r;
  r.best = candidate_from_json(value.at("best"));
  const json::Value& all = value.at("evaluated");
  for (std::size_t i = 0; i < all.size(); ++i)
    r.evaluated.push_back(candidate_from_json(all.at(i)));
  r.seconds = value.at("seconds").as_number();
  r.num_candidates =
      json::as_uint(value.at("num_candidates"), "num_candidates");
  if (value.contains("cache_hits"))
    r.cache_hits = json::as_uint(value.at("cache_hits"), "cache_hits");
  if (value.contains("cache_misses"))
    r.cache_misses = json::as_uint(value.at("cache_misses"), "cache_misses");
  if (value.contains("rejections"))
    for (const auto& [name, count] : value.at("rejections").items())
      r.rejections[name] = json::as_uint(count, "rejection count");
  return r;
}

void save_report(const SearchReport& report, const std::string& path) {
  write_atomically(report_to_json(report), path, "save_report");
}

SearchReport load_report(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw Error("load_report: cannot open " + path);
  return report_from_json(json::parse(*text));
}

json::Value result_cache_to_json(const std::vector<CacheEntry>& entries,
                                 const std::string& code_version) {
  return kResultStore.to_json(entries, code_version);
}

std::vector<CacheEntry> result_cache_from_json(
    const json::Value& value, const std::string& code_version) {
  return kResultStore.from_json(value, code_version);
}

void save_result_cache(const std::vector<CacheEntry>& entries,
                       const std::string& path,
                       const std::string& code_version) {
  kResultStore.save(entries, path, code_version);
}

std::vector<CacheEntry> load_result_cache(const std::string& path,
                                          const std::string& code_version) {
  return kResultStore.load(path, code_version);
}

void save_plan_cache(const std::vector<qtensor::CachedPlan>& plans,
                     const std::string& path,
                     const std::string& code_version) {
  kPlanStore.save(plans, path, code_version);
}

std::vector<qtensor::CachedPlan> load_plan_cache(
    const std::string& path, const std::string& code_version) {
  return kPlanStore.load(path, code_version);
}

json::Value optim_state_to_json(const optim::OptimState& state) {
  json::Value obj = json::Value::object();
  obj.set("optimizer", state.optimizer);
  obj.set("evaluations", state.evaluations);
  json::Value history = json::Value::array();
  for (double h : state.history) history.push_back(finite_or_tag(h));
  obj.set("history", std::move(history));
  json::Value numbers = json::Value::array();
  for (double n : state.numbers) numbers.push_back(finite_or_tag(n));
  obj.set("numbers", std::move(numbers));
  // 64-bit words (counters, RNG state) do not round-trip through JSON
  // doubles; go via strings like the plan cache's structure hashes.
  json::Value words = json::Value::array();
  for (std::uint64_t w : state.words) words.push_back(std::to_string(w));
  obj.set("words", std::move(words));
  json::Value child = json::Value::array();
  for (const optim::OptimState& c : state.child)
    child.push_back(optim_state_to_json(c));
  obj.set("child", std::move(child));
  return obj;
}

optim::OptimState optim_state_from_json(const json::Value& value) {
  optim::OptimState state;
  state.optimizer = value.at("optimizer").as_string();
  state.evaluations = json::as_uint(value.at("evaluations"), "evaluations");
  const json::Value& history = value.at("history");
  for (std::size_t i = 0; i < history.size(); ++i)
    state.history.push_back(number_or_tag(history.at(i)));
  const json::Value& numbers = value.at("numbers");
  for (std::size_t i = 0; i < numbers.size(); ++i)
    state.numbers.push_back(number_or_tag(numbers.at(i)));
  const json::Value& words = value.at("words");
  for (std::size_t i = 0; i < words.size(); ++i)
    state.words.push_back(json::parse_u64(words.at(i).as_string(), "word"));
  const json::Value& child = value.at("child");
  for (std::size_t i = 0; i < child.size(); ++i)
    state.child.push_back(optim_state_from_json(child.at(i)));
  return state;
}

void save_checkpoints(const std::vector<TrainingCheckpoint>& entries,
                      const std::string& path,
                      const std::string& code_version) {
  kCheckpointStore.save(entries, path, code_version);
}

std::vector<TrainingCheckpoint> load_checkpoints(
    const std::string& path, const std::string& code_version) {
  return kCheckpointStore.load(path, code_version);
}

}  // namespace qarch::search
