// dist::Comm — MPI-shaped message passing over a pluggable Transport.
//
// The paper (§3.2) runs on Cori with real MPI; this layer makes the rank
// runtime a RUN-TIME choice behind one interface:
//
//   * Backend::kThreads — "minimpi": every rank is a thread of one process
//     sharing an in-memory mailbox, so multi-rank behavior is exercised
//     under plain ctest with zero MPI installed (run_ranks(n, fn)).
//   * Backend::kMpi — real MPI ranks (GALACTOS_WITH_MPI builds): the same
//     Comm code drives MPI_Isend/Improbe-backed transport, one rank per
//     process under mpirun (dist::init + Session::run).
//
// Semantics (identical on both backends):
//   * Point-to-point messages are typed, tagged and FIFO per (src, dst,
//     tag): different tags are independent channels, same-tag messages
//     arrive in send order. Sends never block (buffered); recv blocks.
//   * Non-blocking completion is explicit: isend/irecv return Request
//     handles with test()/wait(), so callers can post receives, overlap
//     them with compute, and drain completions in any order (the
//     halo-exchange / tree-build pipeline in dist/partition.cpp +
//     dist/runner.cpp).
//   * Collectives (barrier, allreduce, gather, allgather, bcast) are built
//     ON TOP of transport point-to-point sends and take an explicit tag so
//     user traffic never collides. The allreduce family runs a recursive
//     halving/doubling butterfly — O(log P) depth with a fixed combination
//     tree — so the result is deterministic, identical on every rank, and
//     BITWISE IDENTICAL ACROSS BACKENDS for the same rank count.
//   * sub_range() carves a contiguous sub-communicator out of this one
//     with local re-ranking — the recursive k-d partitioner halves
//     communicators this way at every level (dist/partition.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "dist/error.hpp"
#include "dist/transport.hpp"
#include "util/check.hpp"

namespace galactos::dist {

namespace detail {
// Shared failure-control state (deadline, pipeline phase, armed abort
// probes) — one per rank, shared by every Comm copy and sub_range carved
// from it, so a deadline set at pipeline entry governs the partitioner's
// halved communicators too. Defined in comm.cpp.
struct CommControl;
}  // namespace detail

// Per-phase wire-byte counters for one rank, indexed by int(Phase) —
// framed bytes as handed to / taken from the transport, identical
// accounting on both backends because every message (point-to-point and
// collective alike) crosses Comm::send_bytes and the framed receive path.
// Shared across sub_range copies like the rest of the control state, so
// the partitioner's halved-communicator traffic lands in the same tally.
// Received bytes are attributed to the phase current when the payload is
// DRAINED (not when it was posted) — halo bytes a two-pass run claims
// late therefore land in kHaloComplete.
struct CommByteCounters {
  std::uint64_t sent[kPhaseCount] = {};
  std::uint64_t recv[kPhaseCount] = {};
};

// Handle for a posted non-blocking operation (MPI_Request analog).
//
// * test() — non-blocking completion probe; sticky once true. For a posted
//   receive, a true result means a message has been claimed by THIS
//   request (two requests on the same channel never claim the same one).
// * wait() — blocks until complete; throws if the world aborts first (a
//   peer rank threw while this receive was posted).
//
// Matching caveat: a receive claims its message at the first test()/wait()
// that finds one, so several outstanding requests on ONE channel map
// messages in claim order, not post order. Real MPI matches at post time —
// keep at most one receive outstanding per (src, tag) channel (as the halo
// exchange does: one tag per peer) and the two backends agree.
//
// A default-constructed handle — and anything isend returns, since buffered
// sends complete at post time — is trivially complete.
class Request {
 public:
  Request() = default;

  // True if this handle refers to a posted operation still owning state.
  bool valid() const { return state_ != nullptr; }

  bool test() { return !state_ || state_->test(); }
  void wait() {
    if (state_) state_->wait();
  }

 protected:
  friend class Comm;
  explicit Request(std::shared_ptr<detail::RequestState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::RequestState> state_;
};

// Typed receive handle: wait for completion and take the payload.
template <typename T>
class RecvRequest : public Request {
 public:
  RecvRequest() = default;

  // Blocks until the message arrives and returns it (call once).
  std::vector<T> get() {
    GLX_CHECK_MSG(valid(), "RecvRequest::get on an empty handle");
    wait();
    const std::vector<unsigned char> bytes = state_->take();
    GLX_CHECK(bytes.size() % sizeof(T) == 0);
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

 private:
  friend class Comm;
  using Request::Request;
};

class Comm {
 public:
  // Rank within this communicator, [0, size()).
  int rank() const { return rank_; }
  int size() const { return static_cast<int>(group_.size()); }
  // Rank within the original world (run_ranks world or MPI_COMM_WORLD).
  int world_rank() const { return group_[static_cast<std::size_t>(rank_)]; }

  // --- point-to-point -----------------------------------------------------

  template <typename T>
  void send(int dest, int tag, const std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "dist messages must be trivially copyable");
    send_bytes(dest, tag, data.data(), data.size() * sizeof(T));
  }

  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, &v, sizeof(T));
  }

  template <typename T>
  std::vector<T> recv(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<unsigned char> bytes = recv_bytes(src, tag);
    GLX_CHECK(bytes.size() % sizeof(T) == 0);
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  template <typename T>
  T recv_value(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<unsigned char> bytes = recv_bytes(src, tag);
    GLX_CHECK(bytes.size() == sizeof(T));
    T v;
    std::memcpy(&v, bytes.data(), sizeof(T));
    return v;
  }

  // --- non-blocking point-to-point ---------------------------------------

  // Sends never block (buffered thread mailbox / posted MPI_Isend), so an
  // isend is complete at post time; the handle exists so call sites read
  // like MPI.
  template <typename T>
  Request isend(int dest, int tag, const std::vector<T>& data) {
    send(dest, tag, data);
    return Request();
  }

  // Posts a receive on (src, tag) and returns immediately; the caller
  // overlaps work with the in-flight message and collects it via test() /
  // wait() / get(). See the Request matching caveat: keep one outstanding
  // receive per channel for MPI-identical matching.
  template <typename T>
  RecvRequest<T> irecv(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    return RecvRequest<T>(post_recv(src, tag));
  }

  // --- collectives (every member must call with the same tag) -------------

  // Releases no rank until every rank has entered.
  void barrier(int tag);

  // Elementwise sum / max across ranks; every rank ends with the same
  // values. The butterfly combines blocks lower-rank-first along a fixed
  // tree, so the result is deterministic and identical on all ranks
  // regardless of arrival timing.
  template <typename T>
  void allreduce_sum(std::vector<T>& v, int tag) {
    allreduce(v, tag, [](T& acc, const T& x) { acc += x; });
  }

  template <typename T>
  T allreduce_sum_value(T v, int tag) {
    std::vector<T> one{v};
    allreduce_sum(one, tag);
    return one[0];
  }

  template <typename T>
  void allreduce_max(std::vector<T>& v, int tag) {
    allreduce(v, tag, [](T& acc, const T& x) {
      if (x > acc) acc = x;
    });
  }

  template <typename T>
  T allreduce_max_value(T v, int tag) {
    std::vector<T> one{v};
    allreduce_max(one, tag);
    return one[0];
  }

  // Copies `root`'s vector to every rank along a binomial tree (O(log P)
  // depth). Non-root contents are replaced.
  template <typename T>
  void bcast(std::vector<T>& v, int root, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<unsigned char> bytes;
    if (rank_ == root) {
      const unsigned char* p =
          reinterpret_cast<const unsigned char*>(v.data());
      bytes.assign(p, p + v.size() * sizeof(T));
    }
    bcast_bytes(bytes, root, tag);
    if (rank_ != root) {
      GLX_CHECK(bytes.size() % sizeof(T) == 0);
      v.resize(bytes.size() / sizeof(T));
      if (!v.empty()) std::memcpy(v.data(), bytes.data(), bytes.size());
    }
  }

  // Rank 0 returns all contributions in rank order (own at index 0);
  // other ranks return an empty vector.
  template <typename T>
  std::vector<std::vector<T>> gather(const std::vector<T>& mine, int tag) {
    std::vector<std::vector<T>> all;
    if (rank_ == 0) {
      all.resize(static_cast<std::size_t>(size()));
      all[0] = mine;
      for (int r = 1; r < size(); ++r) all[static_cast<std::size_t>(r)] =
          recv<T>(r, tag);
    } else {
      send(0, tag, mine);
    }
    return all;
  }

  // Every rank returns all contributions in rank order. Gather to rank 0,
  // flatten into one [per-rank counts | concatenated payload] buffer, and
  // broadcast that once down the binomial tree — O(P) messages total (the
  // old implementation had rank 0 re-send P separate per-rank messages to
  // every rank, O(P²) messages).
  template <typename T>
  std::vector<std::vector<T>> allgather(const std::vector<T>& mine, int tag) {
    const int P = size();
    std::vector<std::vector<T>> all = gather(mine, tag);
    if (P == 1) return all;

    std::vector<unsigned char> flat;
    if (rank_ == 0) {
      std::vector<std::uint64_t> counts(static_cast<std::size_t>(P));
      std::size_t total = 0;
      for (int r = 0; r < P; ++r) {
        counts[static_cast<std::size_t>(r)] =
            all[static_cast<std::size_t>(r)].size();
        total += all[static_cast<std::size_t>(r)].size();
      }
      flat.resize(static_cast<std::size_t>(P) * sizeof(std::uint64_t) +
                  total * sizeof(T));
      std::memcpy(flat.data(), counts.data(),
                  static_cast<std::size_t>(P) * sizeof(std::uint64_t));
      unsigned char* p =
          flat.data() + static_cast<std::size_t>(P) * sizeof(std::uint64_t);
      for (int r = 0; r < P; ++r) {
        const auto& part = all[static_cast<std::size_t>(r)];
        if (!part.empty()) {
          std::memcpy(p, part.data(), part.size() * sizeof(T));
          p += part.size() * sizeof(T);
        }
      }
    }
    bcast_bytes(flat, 0, tag);
    if (rank_ != 0) {
      GLX_CHECK(flat.size() >=
                static_cast<std::size_t>(P) * sizeof(std::uint64_t));
      std::vector<std::uint64_t> counts(static_cast<std::size_t>(P));
      std::memcpy(counts.data(), flat.data(),
                  static_cast<std::size_t>(P) * sizeof(std::uint64_t));
      all.assign(static_cast<std::size_t>(P), {});
      const unsigned char* p =
          flat.data() + static_cast<std::size_t>(P) * sizeof(std::uint64_t);
      for (int r = 0; r < P; ++r) {
        auto& part = all[static_cast<std::size_t>(r)];
        part.resize(counts[static_cast<std::size_t>(r)]);
        if (!part.empty()) {
          std::memcpy(part.data(), p, part.size() * sizeof(T));
          p += part.size() * sizeof(T);
        }
      }
    }
    return all;
  }

  // --- sub-communicators --------------------------------------------------

  // Communicator over this comm's ranks [begin, end); the caller must be a
  // member. Purely local (rank renumbering), like MPI_Comm_split on a
  // contiguous color. Shares this comm's failure-control state (deadline,
  // phase, abort probes).
  Comm sub_range(int begin, int end) const;

  // --- deadlines, phases, graceful failure --------------------------------

  // Comm-wide receive deadline in seconds; <= 0 (the default) disables it.
  // While set, every blocking receive on this comm — recv/recv_value,
  // RecvRequest::get, and therefore every collective — throws a structured
  // dist::TimeoutError naming the channel and pipeline phase if no message
  // arrives in time, instead of hanging forever on a lost message or dead
  // peer. Arming also posts a silent probe on the reserved abort channel
  // (tags::kAbort) per peer, so a failing peer's post_abort() unwinds this
  // rank with dist::PeerAbortError carrying the original reason.
  void set_timeout(double seconds);
  double timeout() const;

  // Marks the pipeline phase for diagnostics (TimeoutError / RankReport)
  // and gives an active FaultPlan its stall/crash hook point.
  void set_phase(Phase p);
  Phase phase() const;

  // This rank's cumulative wire-byte tally (see CommByteCounters). Counts
  // start at communicator construction — the Session hands every run a
  // fresh world Comm, so a run's report reflects only its own traffic.
  const CommByteCounters& byte_counters() const;

  // Best-effort peer-failure broadcast: one message per peer on the
  // reserved abort channel, never throws. run_rank calls this on the way
  // out of a failed pipeline so every rank unwinds with the same error.
  void post_abort(const std::string& reason) noexcept;

 private:
  friend class Session;
  friend void run_ranks(int nranks, const std::function<void(Comm&)>& fn);

  // Recursive halving/doubling butterfly behind the allreduce family:
  // O(log P) depth, every rank ends with the full result. Extra ranks
  // beyond the largest power of two fold into a partner first and receive
  // the final result back. At every exchange the lower rank's block is the
  // left operand of combine(acc, x), so all ranks evaluate the SAME fixed
  // combination tree — deterministic and identical everywhere (the
  // bracketing is balanced, e.g. ((0+1)+(2+3)), not the sequential
  // rank-order fold a gather-to-root would compute).
  template <typename T, typename Combine>
  void allreduce(std::vector<T>& v, int tag, Combine combine) {
    const int P = size();
    if (P == 1) return;
    int m = 1;
    while (2 * m <= P) m *= 2;
    const int rem = P - m;

    auto fold = [&](std::vector<T>& acc, const std::vector<T>& x) {
      GLX_CHECK_MSG(acc.size() == x.size(), "allreduce: mismatched lengths");
      for (std::size_t i = 0; i < acc.size(); ++i) combine(acc[i], x[i]);
    };

    if (rank_ >= m) {
      send(rank_ - m, tag, v);
    } else if (rank_ < rem) {
      fold(v, recv<T>(rank_ + m, tag));
    }

    if (rank_ < m) {
      for (int dist = 1; dist < m; dist *= 2) {
        const int partner = rank_ ^ dist;
        send(partner, tag, v);
        std::vector<T> other = recv<T>(partner, tag);
        if (partner > rank_) {
          fold(v, other);
        } else {
          fold(other, v);
          v = std::move(other);
        }
      }
    }

    if (rank_ >= m) {
      v = recv<T>(rank_ - m, tag);
    } else if (rank_ < rem) {
      send(rank_ + m, tag, v);
    }
  }

  Comm(std::shared_ptr<detail::Transport> transport, std::vector<int> group,
       int rank);

  // dest/src are ranks of THIS communicator; the transport is addressed by
  // world ranks so sub-communicator traffic cannot collide across groups —
  // tags + (src, dst) world pairs identify a channel. Every payload is
  // framed on the wire (dist/frame.hpp: magic + length + FNV-1a checksum),
  // so truncation or corruption surfaces as dist::ProtocolError at the
  // receiver instead of a silently wrong result; the receive path honors
  // the comm deadline (dist::TimeoutError on expiry).
  void send_bytes(int dest, int tag, const void* data, std::size_t nbytes);
  std::vector<unsigned char> recv_bytes(int src, int tag);
  std::shared_ptr<detail::RequestState> post_recv(int src, int tag);
  void bcast_bytes(std::vector<unsigned char>& bytes, int root, int tag);

  std::shared_ptr<detail::Transport> transport_;
  std::vector<int> group_;  // group rank -> world rank
  int rank_;
  std::shared_ptr<detail::CommControl> ctrl_;
};

// Resolves the effective comm deadline: GALACTOS_DIST_TIMEOUT_S (when set
// and non-empty — throws on a non-numeric value) overrides `fallback`,
// which is typically DistRunConfig::timeout_s or a --timeout-s flag.
double timeout_from_env(double fallback);

// Spawns `nranks` threads, each running `fn` with its own Comm over the
// world communicator, and joins them. If any rank throws, the world is
// aborted (blocked receives wake up and fail) and the first exception is
// rethrown here. This is the kThreads backend's execution model and it is
// always available — including inside an MPI process (the minimpi-vs-MPI
// equivalence tests run both in one binary).
void run_ranks(int nranks, const std::function<void(Comm&)>& fn);

// --- runtime backend selection ---------------------------------------------

enum class Backend {
  kThreads,  // in-process minimpi world (always available)
  kMpi,      // real MPI ranks (GALACTOS_WITH_MPI builds under mpirun)
};

const char* backend_name(Backend b);

// True when the binary was built with GALACTOS_WITH_MPI.
bool mpi_compiled();

// True when an MPI launcher's environment is visible (mpirun/srun set
// OMPI_COMM_WORLD_SIZE / PMI_RANK / PMIX_RANK / ...). Pure env sniffing —
// works in MPI-less builds too (where it simply reports the launcher).
bool mpi_launcher_detected();

// The exact environment variables mpi_launcher_detected() sniffs, exposed
// so tests quiet/fake the real list instead of a drifting copy.
const std::vector<const char*>& mpi_launcher_env_vars();

// A live backend: holds the transport and, for kMpi, the MPI runtime
// lifetime (MPI_Finalize runs when the last Session copy dies, iff init()
// called MPI_Init). Copyable handle, shared state.
class Session {
 public:
  Session() = default;  // empty; use dist::init()

  bool valid() const { return impl_ != nullptr; }
  Backend backend() const;
  // kMpi: MPI_COMM_WORLD size / rank. kThreads: 1 / 0 — thread ranks are
  // chosen per run() call, the process itself is a single root.
  int size() const;
  int rank() const;
  bool is_root() const { return rank() == 0; }

  // Collective entry point, uniform across backends:
  //   * kThreads — spawns `nranks` minimpi rank threads (run_ranks).
  //   * kMpi — requires nranks <= size(); world ranks < nranks enter `fn`
  //     over a contiguous sub-communicator while the rest skip, and every
  //     world rank synchronizes at a closing barrier (so back-to-back
  //     run() calls can reuse tags without cross-run matching).
  // nranks == 0 means "the whole world" under kMpi (size() ranks) and
  // exactly 1 thread rank under kThreads.
  void run(int nranks, const std::function<void(Comm&)>& fn) const;

 private:
  friend Session init(int* argc, char*** argv);
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

// If a real MPI world is up, MPI_Abort the whole job (exit_code) — peers
// blocked in collectives have no other wake-up path; no-op on thread-backed
// or MPI-less runs. For top-level error handlers in mpirun-able binaries;
// Session teardown during exception unwind already does this itself.
void abort_mpi_world(int exit_code);

// Backend factory. Order of precedence:
//   1. GALACTOS_DIST_BACKEND env var: "threads"/"minimpi" forces kThreads;
//      "mpi" forces kMpi (throws if the build has no MPI support);
//      ""/"auto" falls through. Anything else throws.
//   2. Auto: kMpi when MPI support is compiled in AND (MPI is already
//      initialized OR an MPI launcher environment is detected) — i.e. a
//      GALACTOS_WITH_MPI binary under `mpirun -np N` becomes N real ranks;
//      the same binary launched directly stays on threads.
// argc/argv are forwarded to MPI_Init (may be nullptr).
Session init(int* argc, char*** argv);

}  // namespace galactos::dist
