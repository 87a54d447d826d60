#ifndef TENCENTREC_TDSTORE_DATA_SERVER_H_
#define TENCENTREC_TDSTORE_DATA_SERVER_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/profiled_mutex.h"
#include "common/status.h"
#include "tdstore/engine.h"
#include "tdstore/wal.h"

namespace tencentrec::tdstore {

class DataServer;

/// One replication op queued from a host instance to its slave.
struct ReplicationOp {
  std::string key;
  std::string value;
  bool is_delete = false;
};

/// A group of ops shipped host→slave as one unit: each per-instance run of
/// a Write call ships as a single record, so replication cost scales with
/// runs, not keys.
struct ReplicationRecord {
  std::vector<ReplicationOp> ops;
};

/// One client-facing mutation. `instance_id` is carried per op so one
/// server call can span every instance this server hosts; callers sort ops
/// so same-instance ops are contiguous (each contiguous run is applied
/// under one lock acquisition). Key and value are borrowed: the caller's
/// buffers must outlive the Write call only.
struct WriteOp {
  enum class Kind : uint8_t { kPut, kDelete, kIncrDouble, kIncrInt64 };
  int instance_id = 0;
  Kind kind = Kind::kPut;
  std::string_view key;
  std::string_view value;  ///< kPut payload
  double delta = 0.0;      ///< kIncrDouble addend (missing key = 0)
  int64_t int_delta = 0;   ///< kIncrInt64 addend (missing key = 0)

  static WriteOp Put(std::string_view key, std::string_view value,
                     int instance_id = 0) {
    return {instance_id, Kind::kPut, key, value};
  }
  static WriteOp Delete(std::string_view key, int instance_id = 0) {
    return {instance_id, Kind::kDelete, key, {}};
  }
  static WriteOp IncrDouble(std::string_view key, double delta,
                            int instance_id = 0) {
    return {instance_id, Kind::kIncrDouble, key, {}, delta};
  }
  static WriteOp IncrInt64(std::string_view key, int64_t delta,
                           int instance_id = 0) {
    return {instance_id, Kind::kIncrInt64, key, {}, 0.0, delta};
  }
};

/// Outcome of one WriteOp; an increment also returns its post-increment
/// value.
struct WriteResult {
  Status status;
  double value = 0.0;     ///< kIncrDouble result
  int64_t int_value = 0;  ///< kIncrInt64 result
};

/// One client-facing read; the key is borrowed like WriteOp's.
struct ReadOp {
  int instance_id = 0;
  std::string_view key;
};

/// A TDStore data server hosting multiple data instances (shards). Backup is
/// done "in the granularity of data instance" (§3.3): this server may be
/// the host of instance 3 and the slave of instance 7 simultaneously, so
/// all servers serve traffic at once.
///
/// Replication is host-driven: after an update the host notifies the slave,
/// which applies it "when idle" — modeled as a per-instance pending queue
/// drained by FlushReplication() (or synchronously when
/// `sync_replication` is set, which the failover tests use).
class DataServer {
 public:
  DataServer(int server_id, bool sync_replication)
      : server_id_(server_id), sync_replication_(sync_replication) {}

  int server_id() const { return server_id_; }

  /// Creates a local engine for `instance_id` (created as non-host; the
  /// cluster assigns roles).
  Status CreateInstance(int instance_id, const EngineOptions& options);
  bool HasInstance(int instance_id) const;

  /// Marks this server as host (or not) for `instance_id`. Client-facing
  /// operations are only served in the host role — "only the host data
  /// server provides service for a certain data instance" (§3.3); a stale
  /// client hitting a demoted replica gets Unavailable and refreshes its
  /// route table. Replication traffic (ApplyReplicatedRecord) is exempt.
  Status SetHostRole(int instance_id, bool is_host);

  /// Wipes all data of a local instance (admin path used when re-seeding a
  /// recovered replica).
  Status ClearInstance(int instance_id);

  /// Points the host-side replication of `instance_id` at `slave` (nullptr
  /// to stop replicating).
  Status SetSlave(int instance_id, DataServer* slave);

  /// Drops every instance's slave pointer, pending replication, and host
  /// role. Called when this server rejoins as a pure slave after recovery —
  /// its stale host-role state must neither cascade operations into live
  /// hosts nor serve client traffic.
  void ClearAllSlaves();

  /// The two client-facing entry points (plus ScanPrefix). Each call counts
  /// as ONE server invocation no matter how many ops it carries — a point op
  /// is a one-op call — while reads()/writes() count per op. Each contiguous
  /// same-instance run is applied under one lock acquisition, strictly in
  /// input order, so same-key increments produce bit-identical values to
  /// issuing them one call at a time. A write run applies, then appends ONE
  /// WAL record, then ships ONE replication record, all under the instance
  /// lock; a read run reads the engine under the lock, so it never sees half
  /// of a concurrent write run. `out` must be
  /// as long as `ops` and gets one entry per op (aligned by index). The
  /// overall Status is non-OK only when the whole server is down or a WAL
  /// append fails (then `out` is incomplete) — per-op failures (wrong host,
  /// missing instance, engine errors) land in `out` without aborting the
  /// rest of the call.
  Status Write(std::span<const WriteOp> ops, std::span<WriteResult> out);
  Status MultiGet(std::span<const ReadOp> ops,
                  std::span<Result<std::string>> out) const;

  Status ScanPrefix(int instance_id, std::string_view prefix,
                    const std::function<bool(std::string_view,
                                             std::string_view)>& visitor) const;

  /// Drains pending replication ops for all hosted instances.
  Status FlushReplication();

  /// Number of pending (not yet replicated) records across instances: one
  /// per write run.
  size_t PendingReplication() const;

  /// Applies a batched replication record coming from a host server. An
  /// all-put record goes through the engine's MultiPut fast path.
  Status ApplyReplicatedRecord(int instance_id, const ReplicationRecord& rec);

  /// Copies the full content of `instance_id` into `target` (used to
  /// re-seed a replacement slave after failover/recovery), shipped as
  /// bounded all-put replication records.
  Status CopyInstanceTo(int instance_id, DataServer* target) const;

  /// --- durable state (DESIGN.md §14) ---

  /// Opens this server's WAL at `dir`/server<id>.wal and arms WAL logging:
  /// from here on every host-side write run is appended as one atomic record
  /// in the same critical section that applies it. Call
  /// before any traffic; existing records wait in the WAL for
  /// RecoverDurable().
  Status EnableDurability(const std::string& dir, const Wal::Options& options);
  bool durability_enabled() const { return wal_ != nullptr; }

  /// Highest barrier id the WAL recovered at EnableDurability (0 = none).
  /// The cluster takes the minimum across servers as the commit point.
  uint64_t WalLastBarrier() const;

  /// Restores every local instance from its snapshot file (absent file =
  /// no checkpoint yet = start empty), truncates the WAL to `commit_barrier`
  /// (physically dropping the uncommitted suffix), and replays the surviving
  /// ops straight into the engines — bypassing replication; the cluster
  /// re-seeds slaves afterwards. Bumps store.recovery.{replayed_records,
  /// duration_us} and the store.recovery.last_barrier gauge.
  Status RecoverDurable(uint64_t commit_barrier);

  /// Appends a barrier record (always fsynced): everything before it is a
  /// consistent batch boundary recovery may stop at.
  Status AppendBarrier(uint64_t barrier_id);

  /// Snapshots every hosted (host-role) instance under ALL instance locks —
  /// one consistent cut across instances — then resets the WAL, whose
  /// records the snapshots now subsume. Slave-role copies are not
  /// checkpointed; their host's snapshot+WAL is the durable story.
  /// `barrier_id` (the last committed barrier, 0 = none yet) is re-seeded
  /// into the fresh WAL so a crash before the NEXT barrier still recovers
  /// to this one — without it, recovery would see an empty log, report
  /// barrier 0, and a resuming driver would replay batches the snapshots
  /// already contain.
  Status Checkpoint(uint64_t barrier_id);

  /// The WAL (nullptr until EnableDurability); tests poke at sync counters.
  Wal* wal() { return wal_.get(); }

  /// Failure injection: while down, all calls return Unavailable.
  void SetDown(bool down) { down_.store(down); }
  bool IsDown() const { return down_.load(); }

  /// Total keys across hosted instances.
  size_t TotalKeys() const;

  /// Operation counters, per op (reads = MultiGet ops, writes = Write ops).
  /// The combiner and cache ablation benches measure load with these.
  int64_t reads() const { return reads_.load(); }
  int64_t writes() const { return writes_.load(); }
  /// Client-facing entry calls: each Write/MultiGet/ScanPrefix call counts
  /// once, regardless of how many ops it carries. The micro_store
  /// bench asserts its ops-per-action reduction against this.
  int64_t invocations() const { return invocations_.load(); }
  void ResetCounters() {
    reads_.store(0);
    writes_.store(0);
    invocations_.store(0);
  }

 private:
  struct Instance {
    std::unique_ptr<Engine> engine;
    bool is_host = false;
    DataServer* slave = nullptr;
    std::deque<ReplicationRecord> pending;
    /// A write run's WAL record under construction and the encoded
    /// post-increment values its views point into. Reused under `mu`, so a
    /// run (a point op included) allocates nothing here once warm.
    std::vector<WalOpView> wal_ops;
    std::string wal_incr_bytes;
    /// Serializes runs: read-modify-write increments, the WAL order and the
    /// replication queue, and keeps reads out of half-applied write runs.
    /// Profiled (DESIGN.md §13): each Write/MultiGet run holds it for the
    /// whole run, so this is where write-side lock time concentrates — the
    /// BatchWriter itself is single-owner and lock-free by contract.
    mutable ProfiledMutex mu{"tdstore.instance"};
  };

  Instance* FindInstance(int instance_id) const;
  /// The one request skeleton behind Write and MultiGet: down check, one
  /// invocation, then for each contiguous same-instance run of `ops`:
  /// FindInstance, instance lock, host check, and `apply_run(inst, begin,
  /// end)` under the lock. A run that fails before apply gets that status
  /// in every `out` slot. Stops at the first non-OK `apply_run` status.
  template <typename Op, typename Out, typename ApplyRun>
  Status ForEachRun(std::span<const Op> ops, std::span<Out> out,
                    ApplyRun apply_run) const;
  /// Ships or queues one record for `inst`'s slave. Caller holds inst->mu.
  void ReplicateLocked(Instance* inst, int instance_id,
                       ReplicationRecord&& rec);
  /// Appends one op record for `instance_id` (no-op with no WAL or no ops).
  /// Caller holds the instance lock, so the log order matches apply order.
  Status WalAppendLocked(int instance_id, const WalOpView* ops, size_t count);
  std::string SnapshotPath(int instance_id) const;

  const int server_id_;
  const bool sync_replication_;
  std::atomic<bool> down_{false};
  mutable std::atomic<int64_t> reads_{0};
  mutable std::atomic<int64_t> writes_{0};
  mutable std::atomic<int64_t> invocations_{0};
  mutable std::mutex map_mu_;
  std::map<int, std::unique_ptr<Instance>> instances_;
  /// Set once by EnableDurability before traffic; read lock-free after.
  std::string durable_dir_;
  std::unique_ptr<Wal> wal_;
};

}  // namespace tencentrec::tdstore

#endif  // TENCENTREC_TDSTORE_DATA_SERVER_H_
