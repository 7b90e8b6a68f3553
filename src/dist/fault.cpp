#include "dist/fault.hpp"

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "util/check.hpp"

namespace galactos::dist {

namespace {

constexpr int kDefaultDelayMs = 100;
constexpr int kDefaultStallMs = 30000;

bool is_message_kind(FaultRule::Kind k) {
  return k == FaultRule::Kind::kDrop || k == FaultRule::Kind::kDelay ||
         k == FaultRule::Kind::kDup || k == FaultRule::Kind::kCorrupt;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Process-wide plan + per-rule match counters. One mutex serves everything:
// faults fire per message / per phase transition, both far coarser than the
// compute between them.
struct PlanState {
  std::mutex mu;
  FaultPlan plan;
  std::vector<long long> matched;  // per-rule match count (1-based index)
  bool have_plan = false;          // a plan was installed (maybe empty)
  bool env_checked = false;
};

PlanState& state() {
  static PlanState s;
  return s;
}

void install_locked(PlanState& s, FaultPlan plan) {
  s.matched.assign(plan.rules.size(), 0);
  s.plan = std::move(plan);
  s.have_plan = true;
}

// Lazily adopt GALACTOS_FAULT_PLAN the first time anyone consults the
// plan; a malformed spec throws rather than half-applying.
void ensure_env_loaded_locked(PlanState& s) {
  if (s.env_checked) return;
  s.env_checked = true;
  const char* env = std::getenv("GALACTOS_FAULT_PLAN");
  if (env != nullptr && *env != '\0') install_locked(s, FaultPlan::parse(env));
}

// Advances rule `i`'s match counter and reports whether it fires for this
// match (inside the [skip, skip+count) window; count <= 0 = unbounded).
bool rule_fires_locked(PlanState& s, std::size_t i) {
  const FaultRule& r = s.plan.rules[i];
  const long long n = ++s.matched[i];
  if (n <= r.skip) return false;
  if (r.count > 0 && n > static_cast<long long>(r.skip) + r.count)
    return false;
  return true;
}

// What to do to one outgoing message, decided under the lock, applied
// outside it (a delay rule must not serialize every other rank's sends).
struct SendActions {
  bool drop = false;
  bool dup = false;
  int delay_ms = 0;
  bool corrupt = false;
  std::uint64_t corrupt_key = 0;
};

SendActions plan_send(int src, int dst, int tag) {
  PlanState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  ensure_env_loaded_locked(s);
  SendActions a;
  if (!s.have_plan || s.plan.rules.empty()) return a;
  for (std::size_t i = 0; i < s.plan.rules.size(); ++i) {
    const FaultRule& r = s.plan.rules[i];
    if (!is_message_kind(r.kind)) continue;
    if (!r.matches_channel(src, dst, tag)) continue;
    if (!rule_fires_locked(s, i)) continue;
    switch (r.kind) {
      case FaultRule::Kind::kDrop:
        a.drop = true;
        break;
      case FaultRule::Kind::kDelay:
        a.delay_ms += r.ms < 0 ? kDefaultDelayMs : r.ms;
        break;
      case FaultRule::Kind::kDup:
        a.dup = true;
        break;
      case FaultRule::Kind::kCorrupt:
        a.corrupt = true;
        a.corrupt_key = splitmix64(
            s.plan.seed ^ (static_cast<std::uint64_t>(i) << 48) ^
            (static_cast<std::uint64_t>(s.matched[i]) << 24) ^
            (static_cast<std::uint64_t>(src) * 1000003u) ^
            (static_cast<std::uint64_t>(dst) * 8191u) ^
            static_cast<std::uint64_t>(tag));
        break;
      default:
        break;
    }
  }
  return a;
}

// The decorator: message-kind faults applied on the SEND side, so both
// backends (thread mailbox and MPI) observe identical, deterministic
// faults. recv paths pass straight through.
class FaultInjectingTransport final : public detail::Transport {
 public:
  explicit FaultInjectingTransport(std::shared_ptr<detail::Transport> inner)
      : inner_(std::move(inner)) {}

  void send_bytes(int src_world, int dst_world, int tag, const void* data,
                  std::size_t nbytes) override {
    const SendActions a = plan_send(src_world, dst_world, tag);
    if (a.delay_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(a.delay_ms));
    if (a.drop) return;
    if (a.corrupt && nbytes > 0) {
      const unsigned char* p = static_cast<const unsigned char*>(data);
      std::vector<unsigned char> bad(p, p + nbytes);
      bad[static_cast<std::size_t>(a.corrupt_key % nbytes)] ^= 0xA5;
      inner_->send_bytes(src_world, dst_world, tag, bad.data(), nbytes);
      if (a.dup) inner_->send_bytes(src_world, dst_world, tag, bad.data(),
                                    nbytes);
      return;
    }
    inner_->send_bytes(src_world, dst_world, tag, data, nbytes);
    if (a.dup) inner_->send_bytes(src_world, dst_world, tag, data, nbytes);
  }

  std::vector<unsigned char> recv_bytes(int src_world, int dst_world,
                                        int tag) override {
    return inner_->recv_bytes(src_world, dst_world, tag);
  }

  std::shared_ptr<detail::RequestState> post_recv(int src_world,
                                                  int dst_world,
                                                  int tag) override {
    return inner_->post_recv(src_world, dst_world, tag);
  }

 private:
  std::shared_ptr<detail::Transport> inner_;
};

// Throws dist::Error like every other parse failure — FaultPlan::parse's
// contract is one error type for "the plan is unreadable".
long long parse_int(const std::string& tok, const std::string& spec) {
  if (tok.empty())
    throw Error("GALACTOS_FAULT_PLAN: empty integer in \"" + spec + "\"");
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (end == nullptr || *end != '\0')
    throw Error("GALACTOS_FAULT_PLAN: \"" + tok +
                "\" is not an integer (in \"" + spec + "\")");
  return v;
}

Phase parse_phase(const std::string& name, const std::string& spec) {
  static const Phase kAll[] = {
      Phase::kScatter,      Phase::kPartition,     Phase::kHaloPost,
      Phase::kOwnedPass,    Phase::kHaloComplete,  Phase::kSecondaryPass,
      Phase::kReduce,       Phase::kTeardown,
  };
  for (Phase p : kAll)
    if (name == phase_name(p)) return p;
  throw Error("GALACTOS_FAULT_PLAN: \"" + name +
              "\" is not a pipeline phase (in \"" + spec + "\")");
}

bool known_tag_family(const std::string& name) {
  return name == "halo" || name == "partition" || name == "reduce" ||
         name == "world" || name == "session-barrier" || name == "abort" ||
         name == "user";
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

}  // namespace

bool FaultRule::matches_channel(int s, int d, int t) const {
  if (src >= 0 && s != src) return false;
  if (dst >= 0 && d != dst) return false;
  if (!tag_family.empty()) return tag_family == tags::family(t);
  if (tag >= 0 && t != tag) return false;
  return true;
}

bool FaultRule::matches_rank_phase(int r, Phase p) const {
  if (rank >= 0 && r != rank) return false;
  if (phase != Phase::kNone && p != phase) return false;
  return true;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& item : split(spec, ';')) {
    if (item.empty()) continue;
    if (item.rfind("seed=", 0) == 0) {
      plan.seed = static_cast<std::uint64_t>(parse_int(item.substr(5), spec));
      continue;
    }
    const std::size_t colon = item.find(':');
    const std::string kind_tok = item.substr(0, colon);
    FaultRule r;
    if (kind_tok == "drop") r.kind = FaultRule::Kind::kDrop;
    else if (kind_tok == "delay") r.kind = FaultRule::Kind::kDelay;
    else if (kind_tok == "dup") r.kind = FaultRule::Kind::kDup;
    else if (kind_tok == "corrupt") r.kind = FaultRule::Kind::kCorrupt;
    else if (kind_tok == "stall") r.kind = FaultRule::Kind::kStall;
    else if (kind_tok == "crash") r.kind = FaultRule::Kind::kCrash;
    else
      throw Error("GALACTOS_FAULT_PLAN: \"" + kind_tok +
                  "\" is not a fault kind (drop|delay|dup|corrupt|stall|"
                  "crash) in \"" + spec + "\"");
    const bool message_kind = is_message_kind(r.kind);

    if (colon != std::string::npos) {
      for (const std::string& kv : split(item.substr(colon + 1), ',')) {
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos)
          throw Error("GALACTOS_FAULT_PLAN: \"" + kv +
                      "\" is not key=value in \"" + spec + "\"");
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        const auto require = [&](bool ok) {
          if (!ok)
            throw Error("GALACTOS_FAULT_PLAN: key \"" + key +
                        "\" does not apply to fault kind \"" + kind_tok +
                        "\" in \"" + spec + "\"");
        };
        if (key == "src") {
          require(message_kind);
          r.src = static_cast<int>(parse_int(val, spec));
        } else if (key == "dst") {
          require(message_kind);
          r.dst = static_cast<int>(parse_int(val, spec));
        } else if (key == "tag") {
          require(message_kind);
          if (!val.empty() &&
              (std::isdigit(static_cast<unsigned char>(val[0])) ||
               val[0] == '-')) {
            r.tag = static_cast<int>(parse_int(val, spec));
          } else if (known_tag_family(val)) {
            r.tag_family = val;
          } else {
            throw Error("GALACTOS_FAULT_PLAN: \"" + val +
                        "\" is neither a tag number nor a tag family "
                        "(halo|partition|reduce|world|...) in \"" + spec +
                        "\"");
          }
        } else if (key == "rank") {
          require(!message_kind);
          r.rank = static_cast<int>(parse_int(val, spec));
        } else if (key == "phase") {
          require(!message_kind);
          r.phase = parse_phase(val, spec);
        } else if (key == "count") {
          r.count = static_cast<int>(parse_int(val, spec));
        } else if (key == "skip") {
          r.skip = static_cast<int>(parse_int(val, spec));
        } else if (key == "ms") {
          require(r.kind == FaultRule::Kind::kDelay ||
                  r.kind == FaultRule::Kind::kStall);
          r.ms = static_cast<int>(parse_int(val, spec));
        } else {
          throw Error("GALACTOS_FAULT_PLAN: unknown key \"" + key +
                      "\" in \"" + spec + "\"");
        }
      }
    }
    plan.rules.push_back(std::move(r));
  }
  return plan;
}

void set_fault_plan(const FaultPlan& plan) {
  PlanState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.env_checked = true;  // a programmatic plan always beats the env var
  install_locked(s, plan);
}

void clear_fault_plan() {
  PlanState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.env_checked = true;
  install_locked(s, FaultPlan{});
}

bool fault_plan_active() {
  PlanState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  ensure_env_loaded_locked(s);
  return s.have_plan && !s.plan.rules.empty();
}

void fault_on_phase(int world_rank, Phase phase) {
  int stall_ms = 0;
  bool crash = false;
  {
    PlanState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    ensure_env_loaded_locked(s);
    if (!s.have_plan || s.plan.rules.empty()) return;
    for (std::size_t i = 0; i < s.plan.rules.size(); ++i) {
      const FaultRule& r = s.plan.rules[i];
      if (is_message_kind(r.kind)) continue;
      if (!r.matches_rank_phase(world_rank, phase)) continue;
      if (!rule_fires_locked(s, i)) continue;
      if (r.kind == FaultRule::Kind::kStall)
        stall_ms += r.ms < 0 ? kDefaultStallMs : r.ms;
      else
        crash = true;
    }
  }
  // Sleep in slices so a stalled rank still dies promptly if its process
  // is being torn down; the peers' deadlines are what time out, not this.
  while (stall_ms > 0) {
    const int slice = stall_ms < 50 ? stall_ms : 50;
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    stall_ms -= slice;
  }
  if (crash)
    throw InjectedFaultError(
        "crash rule fired on rank " + std::to_string(world_rank) +
        " at phase " + phase_name(phase));
}

namespace detail {
std::shared_ptr<Transport> wrap_with_faults(std::shared_ptr<Transport> inner) {
  // Always interpose: plans can be installed AFTER the world/session
  // transport exists (tests, Session hooks). With no plan the decorator
  // costs one uncontended mutex check per message — noise next to any
  // actual send.
  return std::make_shared<FaultInjectingTransport>(std::move(inner));
}
}  // namespace detail

}  // namespace galactos::dist
