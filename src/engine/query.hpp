// Typed query surface of the read plane (§6.1 query set) and the
// request envelopes of the asynchronous front door.
//
// A Query is one request struct per §6.1 query kind, closed over its
// threshold tau, wrapped in a std::variant. The QueryBroker's
// dispatcher groups queries by (epoch, tau), resolves one ThresholdView
// per group, and executes the groups in parallel — so the per-threshold
// merge work (cross-shard union-find + per-shard root resolution) is
// paid once per tau per epoch, no matter how many queries — or clients
// — share it.
//
// QueryResult mirrors the request kinds positionally: bool for
// SameCluster, uint64_t for ClusterSize / NumClusters,
// std::vector<vertex_id> for ClusterReport and FlatClustering (member
// list / label array), and SizeHistogram for the histogram request.
//
// QueryRequest is the broker envelope (broker.hpp): the typed Query
// payload plus a deadline, a consistency mode (Latest / AtLeastEpoch /
// Pinned), and a cancellation token. submit() resolves the request's
// std::future<ResultSet> with the answers, or with a typed QueryError
// when the request was expired, cancelled, rejected at intake, or
// aborted by shutdown — in every error case WITHOUT running any query
// work.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "graph/types.hpp"

namespace dynsld::engine {

class EngineSnapshot;  // epoch.hpp; Pinned holds one by shared_ptr

/// Are u and v in one cluster at threshold tau?
struct SameClusterQuery {
  vertex_id u, v;
  double tau;
};

/// Vertex count of u's cluster at threshold tau.
struct ClusterSizeQuery {
  vertex_id u;
  double tau;
};

/// All members of u's cluster at threshold tau.
struct ClusterReportQuery {
  vertex_id u;
  double tau;
};

/// Label array over all vertices; labels are member vertices, equal
/// within a cluster and arbitrary otherwise.
struct FlatClusteringQuery {
  double tau;
};

/// Distribution of cluster sizes at threshold tau (singletons included).
struct SizeHistogramQuery {
  double tau;
};

/// Number of clusters at threshold tau (singletons included). Answered
/// from the per-shard reassembly — each shard's count is a rank-prefix
/// lookup, corrected by the cross merge's blob/group counts — without
/// materializing histogram bins or the O(n) label array.
struct NumClustersQuery {
  double tau;
};

/// One typed request, closed over its threshold — the element of a
/// run() batch. Every alternative carries a `tau` field (the grouping
/// key, see query_tau).
using Query = std::variant<SameClusterQuery, ClusterSizeQuery,
                           ClusterReportQuery, FlatClusteringQuery,
                           SizeHistogramQuery, NumClustersQuery>;

/// Cluster-size histogram: (size, number of clusters of that size),
/// size-ascending.
struct SizeHistogram {
  std::vector<std::pair<uint64_t, uint64_t>> bins;

  uint64_t num_clusters() const {
    uint64_t k = 0;
    for (const auto& [size, count] : bins) k += count;
    return k;
  }

  friend bool operator==(const SizeHistogram&, const SizeHistogram&) = default;
};

/// One answer, mirroring the request kinds positionally: bool for
/// SameCluster, uint64_t for ClusterSize and NumClusters,
/// vector<vertex_id> for ClusterReport (member list) and FlatClustering
/// (label array), SizeHistogram for the histogram request.
using QueryResult =
    std::variant<bool, uint64_t, std::vector<vertex_id>, SizeHistogram>;

/// The threshold a query closes over (the batch grouping key).
inline double query_tau(const Query& q) {
  return std::visit([](const auto& req) { return req.tau; }, q);
}

// ---- async request envelopes (the QueryBroker front door) ----

/// Why a submitted request's future was resolved with an error instead
/// of a ResultSet. In every case the request executed no query work.
enum class QueryErrorCode {
  kDeadlineExceeded,   ///< deadline passed before the request dispatched
  kCancelled,          ///< its CancelToken fired while it was queued
  kAdmissionRejected,  ///< intake was at queue-depth capacity at submit
  kShutdown,           ///< the broker shut down with the request in flight
  kEpochUnavailable,   ///< AsOf epoch outside the retained history
};

/// Human-readable name of an error code (log/diagnostic helper).
inline const char* query_error_name(QueryErrorCode c) {
  switch (c) {
    case QueryErrorCode::kDeadlineExceeded: return "deadline exceeded";
    case QueryErrorCode::kCancelled: return "cancelled";
    case QueryErrorCode::kAdmissionRejected: return "admission rejected";
    case QueryErrorCode::kShutdown: return "broker shutdown";
    case QueryErrorCode::kEpochUnavailable: return "epoch unavailable";
  }
  return "unknown";
}

/// The typed error a rejected/expired/cancelled/aborted request's
/// future throws from get(). Requests that fail with a QueryError never
/// executed: no view was resolved and no query counter moved on their
/// behalf (counter-asserted in the broker tests).
class QueryError : public std::runtime_error {
 public:
  explicit QueryError(QueryErrorCode code)
      : std::runtime_error(std::string("QueryError: ") +
                           query_error_name(code)),
        code_(code) {}

  QueryErrorCode code() const { return code_; }

 private:
  QueryErrorCode code_;
};

/// Read side of a cancellation handle. Default-constructed tokens never
/// cancel; obtain a live one from CancelSource::token(). Copying is
/// cheap (one shared_ptr) and all copies observe the same source.
class CancelToken {
 public:
  CancelToken() = default;

  /// Has the owning CancelSource requested cancellation?
  bool cancelled() const {
    return flag_ && flag_->load(std::memory_order_acquire);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Write side of a cancellation handle: hand token() to any number of
/// QueryRequests, then request_cancel() to abandon the ones still
/// queued (in-flight execution is not interrupted — cancellation takes
/// effect at dispatch, before any query work runs). Thread-safe.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Flip the token; queued requests carrying it resolve with
  /// QueryError{kCancelled} at their next dispatch opportunity.
  void request_cancel() { flag_->store(true, std::memory_order_release); }

  /// A token observing this source.
  CancelToken token() const { return CancelToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Consistency mode: answer at whatever epoch is current when the
/// request is answered (the default; all queued Latest requests of one
/// dispatch cycle share one epoch, which is what makes them groupable
/// across clients; an inline answer uses the published epoch).
struct Latest {};

/// Consistency mode: hold the request until an epoch >= `epoch` is
/// published, then answer at the then-current epoch. Lets a client read
/// its own write: flush() returns the epoch to wait for. The request's
/// deadline still applies while parked.
struct AtLeastEpoch {
  uint64_t epoch;
};

/// Consistency mode: answer against this exact pinned snapshot
/// (obtained from SldService::snapshot()), no matter how many epochs
/// publish meanwhile. A null snap behaves like Latest.
struct Pinned {
  std::shared_ptr<const EngineSnapshot> snap;
};

/// Consistency mode: time travel — answer at the HISTORICAL epoch
/// `epoch` exactly. Served from the in-memory retention ring
/// (ServiceConfig::retain_epochs recent epochs) when possible, else
/// rehydrated from a checkpoint file when the service persists and a
/// checkpoint exists at exactly that epoch; otherwise the request
/// resolves with QueryError{kEpochUnavailable}. An AsOf at the current
/// epoch behaves like Latest.
struct AsOf {
  uint64_t epoch;
};

/// When/where a request's queries are answered (see the four modes).
using Consistency = std::variant<Latest, AtLeastEpoch, Pinned, AsOf>;

/// Deadline clock of the request plane (steady: immune to wall-clock
/// jumps). Deadline::max() — the default — means "no deadline".
using Deadline = std::chrono::steady_clock::time_point;

/// The broker envelope: one client request of any number of typed
/// queries (mixed kinds and thresholds welcome — the dispatcher splits
/// them into (epoch, tau) groups shared across clients), plus the
/// request-plane controls. Aggregate-initializable:
///
///   svc.submit({.queries = {SameClusterQuery{u, v, tau}},
///               .deadline = std::chrono::steady_clock::now() + 10ms});
struct QueryRequest {
  std::vector<Query> queries;
  Consistency consistency = Latest{};
  Deadline deadline = Deadline::max();
  CancelToken cancel;
  /// QoS identity for weighted admission (stats.hpp ClientStatsTable).
  /// Each client id gets a proportional share of the broker's queue
  /// depth; 0 — the default — is the shared anonymous pool.
  uint64_t client = 0;
  /// Completion hook: invoked exactly once, after the future is ready
  /// (fulfilled OR resolved with a QueryError), on whichever thread
  /// resolved it — the submitting thread, inside submit(), for
  /// fast-fail paths and for point requests answered inline.
  /// Must be cheap and must not submit or block: the RpcServer uses it
  /// to wake its poll loop instead of parking a reaper thread per
  /// future. Null (the default) means no notification.
  std::function<void()> on_complete;
};

/// What a fulfilled request resolves to: results[i] answers queries[i],
/// all computed against the single epoch `epoch` (mutually consistent,
/// like any snapshot read).
struct ResultSet {
  std::vector<QueryResult> results;
  uint64_t epoch = 0;
};

}  // namespace dynsld::engine
