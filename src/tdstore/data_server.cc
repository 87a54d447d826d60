#include "tdstore/data_server.h"

#include <algorithm>
#include <type_traits>

#include "common/metrics.h"
#include "tdstore/codec.h"

namespace tencentrec::tdstore {

Status DataServer::CreateInstance(int instance_id,
                                  const EngineOptions& options) {
  if (down_.load()) return Status::Unavailable("data server down");
  std::lock_guard lock(map_mu_);
  if (instances_.count(instance_id) > 0) {
    return Status::AlreadyExists("instance exists: " +
                                 std::to_string(instance_id));
  }
  auto engine = CreateEngine(options);
  if (!engine.ok()) return engine.status();
  auto inst = std::make_unique<Instance>();
  inst->engine = std::move(engine).value();
  instances_[instance_id] = std::move(inst);
  return Status::OK();
}

bool DataServer::HasInstance(int instance_id) const {
  std::lock_guard lock(map_mu_);
  return instances_.count(instance_id) > 0;
}

DataServer::Instance* DataServer::FindInstance(int instance_id) const {
  std::lock_guard lock(map_mu_);
  auto it = instances_.find(instance_id);
  return it == instances_.end() ? nullptr : it->second.get();
}

Status DataServer::SetSlave(int instance_id, DataServer* slave) {
  Instance* inst = FindInstance(instance_id);
  if (inst == nullptr) {
    return Status::NotFound("no instance " + std::to_string(instance_id));
  }
  std::lock_guard lock(inst->mu);
  inst->slave = slave;
  return Status::OK();
}

void DataServer::ClearAllSlaves() {
  std::lock_guard lock(map_mu_);
  for (auto& [id, inst] : instances_) {
    std::lock_guard ilock(inst->mu);
    inst->slave = nullptr;
    inst->is_host = false;
    inst->pending.clear();
  }
}

Status DataServer::SetHostRole(int instance_id, bool is_host) {
  Instance* inst = FindInstance(instance_id);
  if (inst == nullptr) {
    return Status::NotFound("no instance " + std::to_string(instance_id));
  }
  std::lock_guard lock(inst->mu);
  inst->is_host = is_host;
  return Status::OK();
}

Status DataServer::ClearInstance(int instance_id) {
  Instance* inst = FindInstance(instance_id);
  if (inst == nullptr) {
    return Status::NotFound("no instance " + std::to_string(instance_id));
  }
  std::lock_guard lock(inst->mu);
  std::vector<std::string> keys;
  TR_RETURN_IF_ERROR(inst->engine->ScanPrefix(
      "", [&](std::string_view key, std::string_view) {
        keys.emplace_back(key);
        return true;
      }));
  for (const auto& key : keys) {
    TR_RETURN_IF_ERROR(inst->engine->Delete(key));
  }
  return Status::OK();
}

void DataServer::ReplicateLocked(Instance* inst, int instance_id,
                                 ReplicationRecord&& rec) {
  if (inst->slave == nullptr || rec.ops.empty()) return;
  if (sync_replication_) {
    (void)inst->slave->ApplyReplicatedRecord(instance_id, rec);
  } else {
    inst->pending.push_back(std::move(rec));
  }
}

namespace {

/// Read-modify-write of one 8-byte counter (missing key = 0). Caller holds
/// the instance lock. On success `*encoded` holds the encoded new value and
/// `*next` the decoded one.
template <typename T>
Status IncrLocked(Engine* engine, std::string_view key, T delta,
                  std::string* encoded, T* next) {
  T current = 0;
  auto existing = engine->Get(key);
  if (existing.ok()) {
    Result<T> decoded = [&] {
      if constexpr (std::is_same_v<T, double>) {
        return DecodeDouble(*existing);
      } else {
        return DecodeInt64(*existing);
      }
    }();
    if (!decoded.ok()) return decoded.status();
    current = *decoded;
  } else if (!existing.status().IsNotFound()) {
    return existing.status();
  }
  *next = current + delta;
  if constexpr (std::is_same_v<T, double>) {
    EncodeDoubleTo(encoded, *next);
  } else {
    EncodeInt64To(encoded, *next);
  }
  return engine->Put(key, *encoded);
}

void SetStatus(WriteResult& out, const Status& s) { out.status = s; }
void SetStatus(Result<std::string>& out, const Status& s) { out = s; }

}  // namespace

template <typename Op, typename Out, typename ApplyRun>
Status DataServer::ForEachRun(std::span<const Op> ops, std::span<Out> out,
                              ApplyRun apply_run) const {
  if (down_.load()) return Status::Unavailable("data server down");
  invocations_.fetch_add(1, std::memory_order_relaxed);
  size_t i = 0;
  while (i < ops.size()) {
    const int instance_id = ops[i].instance_id;
    size_t j = i + 1;
    while (j < ops.size() && ops[j].instance_id == instance_id) ++j;
    Instance* inst = FindInstance(instance_id);
    if (inst == nullptr) {
      const Status s =
          Status::NotFound("no instance " + std::to_string(instance_id));
      for (size_t k = i; k < j; ++k) SetStatus(out[k], s);
      i = j;
      continue;
    }
    std::lock_guard lock(inst->mu);
    if (!inst->is_host) {
      const Status s = Status::Unavailable("not the host replica");
      for (size_t k = i; k < j; ++k) SetStatus(out[k], s);
    } else {
      TR_RETURN_IF_ERROR(apply_run(inst, i, j));
    }
    i = j;
  }
  return Status::OK();
}

Status DataServer::Write(std::span<const WriteOp> ops,
                         std::span<WriteResult> out) {
  return ForEachRun(ops, out, [&](Instance* inst, size_t begin, size_t end) {
    const int instance_id = ops[begin].instance_id;
    const bool log = wal_ != nullptr;
    ReplicationRecord rec;
    std::vector<WalOpView>& wal_ops = inst->wal_ops;
    std::string& incr_bytes = inst->wal_incr_bytes;
    // Reserved for the whole run so appends never move the bytes under
    // earlier views.
    if (log) incr_bytes.reserve(sizeof(int64_t) * (end - begin));
    std::string encoded;
    for (size_t k = begin; k < end; ++k) {
      const WriteOp& op = ops[k];
      WriteResult& r = out[k];
      writes_.fetch_add(1, std::memory_order_relaxed);
      const bool is_delete = op.kind == WriteOp::Kind::kDelete;
      const bool is_incr = op.kind == WriteOp::Kind::kIncrDouble ||
                           op.kind == WriteOp::Kind::kIncrInt64;
      // Increments log and replicate the absolute post-increment value, so
      // replay and slave apply are idempotent overwrites, never re-adds.
      std::string_view applied;
      switch (op.kind) {
        case WriteOp::Kind::kPut:
          r.status = inst->engine->Put(op.key, op.value);
          applied = op.value;
          break;
        case WriteOp::Kind::kDelete:
          r.status = inst->engine->Delete(op.key);
          break;
        case WriteOp::Kind::kIncrDouble:
          r.status = IncrLocked(inst->engine.get(), op.key, op.delta,
                                &encoded, &r.value);
          applied = encoded;
          break;
        case WriteOp::Kind::kIncrInt64:
          r.status = IncrLocked(inst->engine.get(), op.key, op.int_delta,
                                &encoded, &r.int_value);
          applied = encoded;
          break;
      }
      if (!r.status.ok()) continue;
      if (inst->slave != nullptr) {
        rec.ops.push_back(
            {std::string(op.key), std::string(applied), is_delete});
      }
      if (log) {
        if (is_incr) {
          incr_bytes.append(encoded);
          applied = std::string_view(incr_bytes).substr(
              incr_bytes.size() - encoded.size());
        }
        wal_ops.push_back({is_delete, op.key, applied});
      }
    }
    // The whole run is one atomic WAL record: recovery replays all of it or
    // (past the commit barrier) none of it.
    Status logged =
        WalAppendLocked(instance_id, wal_ops.data(), wal_ops.size());
    wal_ops.clear();  // its views borrow the caller's buffers
    incr_bytes.clear();
    TR_RETURN_IF_ERROR(logged);
    ReplicateLocked(inst, instance_id, std::move(rec));
    return Status::OK();
  });
}

Status DataServer::MultiGet(std::span<const ReadOp> ops,
                            std::span<Result<std::string>> out) const {
  return ForEachRun(ops, out, [&](Instance* inst, size_t begin, size_t end) {
    reads_.fetch_add(static_cast<int64_t>(end - begin),
                     std::memory_order_relaxed);
    for (size_t k = begin; k < end; ++k) {
      out[k] = inst->engine->Get(ops[k].key);
    }
    return Status::OK();
  });
}

Status DataServer::ScanPrefix(
    int instance_id, std::string_view prefix,
    const std::function<bool(std::string_view, std::string_view)>& visitor)
    const {
  if (down_.load()) return Status::Unavailable("data server down");
  invocations_.fetch_add(1, std::memory_order_relaxed);
  Instance* inst = FindInstance(instance_id);
  if (inst == nullptr) {
    return Status::NotFound("no instance " + std::to_string(instance_id));
  }
  {
    std::lock_guard lock(inst->mu);
    if (!inst->is_host) return Status::Unavailable("not the host replica");
  }
  return inst->engine->ScanPrefix(prefix, visitor);
}

Status DataServer::FlushReplication() {
  if (down_.load()) return Status::Unavailable("data server down");
  std::vector<std::pair<int, Instance*>> snapshot;
  {
    std::lock_guard lock(map_mu_);
    for (auto& [id, inst] : instances_) snapshot.emplace_back(id, inst.get());
  }
  for (auto& [id, inst] : snapshot) {
    std::deque<ReplicationRecord> pending;
    DataServer* slave;
    {
      std::lock_guard lock(inst->mu);
      pending.swap(inst->pending);
      slave = inst->slave;
    }
    if (slave == nullptr) continue;
    for (const auto& rec : pending) {
      Status s = slave->ApplyReplicatedRecord(id, rec);
      if (!s.ok() && !s.IsUnavailable()) return s;
    }
  }
  return Status::OK();
}

size_t DataServer::PendingReplication() const {
  std::lock_guard lock(map_mu_);
  size_t n = 0;
  for (const auto& [id, inst] : instances_) {
    std::lock_guard ilock(inst->mu);
    n += inst->pending.size();
  }
  return n;
}

Status DataServer::ApplyReplicatedRecord(int instance_id,
                                         const ReplicationRecord& rec) {
  if (down_.load()) return Status::Unavailable("data server down");
  Instance* inst = FindInstance(instance_id);
  if (inst == nullptr) {
    return Status::NotFound("no instance " + std::to_string(instance_id));
  }
  std::lock_guard lock(inst->mu);
  bool all_puts = true;
  for (const auto& op : rec.ops) {
    if (op.is_delete) {
      all_puts = false;
      break;
    }
  }
  if (all_puts && rec.ops.size() > 1) {
    std::vector<std::pair<std::string, std::string>> kvs;
    kvs.reserve(rec.ops.size());
    for (const auto& op : rec.ops) kvs.emplace_back(op.key, op.value);
    return inst->engine->MultiPut(kvs);
  }
  for (const auto& op : rec.ops) {
    if (op.is_delete) {
      TR_RETURN_IF_ERROR(inst->engine->Delete(op.key));
    } else {
      TR_RETURN_IF_ERROR(inst->engine->Put(op.key, op.value));
    }
  }
  return Status::OK();
}

Status DataServer::CopyInstanceTo(int instance_id, DataServer* target) const {
  if (down_.load()) return Status::Unavailable("data server down");
  Instance* inst = FindInstance(instance_id);
  if (inst == nullptr) {
    return Status::NotFound("no instance " + std::to_string(instance_id));
  }
  // Bounded all-put records: each takes the target engine's MultiPut fast
  // path without materializing the whole instance at once.
  constexpr size_t kCopyChunkOps = 256;
  ReplicationRecord chunk;
  chunk.ops.reserve(kCopyChunkOps);
  Status status = Status::OK();
  Status scan = inst->engine->ScanPrefix(
      "", [&](std::string_view key, std::string_view value) {
        chunk.ops.push_back({std::string(key), std::string(value), false});
        if (chunk.ops.size() < kCopyChunkOps) return true;
        status = target->ApplyReplicatedRecord(instance_id, chunk);
        chunk.ops.clear();
        return status.ok();
      });
  TR_RETURN_IF_ERROR(scan);
  TR_RETURN_IF_ERROR(status);
  if (chunk.ops.empty()) return Status::OK();
  return target->ApplyReplicatedRecord(instance_id, chunk);
}

size_t DataServer::TotalKeys() const {
  std::lock_guard lock(map_mu_);
  size_t n = 0;
  for (const auto& [id, inst] : instances_) n += inst->engine->Count();
  return n;
}

Status DataServer::WalAppendLocked(int instance_id, const WalOpView* ops,
                                   size_t count) {
  if (wal_ == nullptr || count == 0) return Status::OK();
  return wal_->AppendOps(instance_id, ops, count);
}

std::string DataServer::SnapshotPath(int instance_id) const {
  return durable_dir_ + "/server" + std::to_string(server_id_) + ".i" +
         std::to_string(instance_id) + ".snap";
}

Status DataServer::EnableDurability(const std::string& dir,
                                    const Wal::Options& options) {
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("durability already enabled");
  }
  if (dir.empty()) return Status::InvalidArgument("durability needs a dir");
  auto wal = std::make_unique<Wal>();
  TR_RETURN_IF_ERROR(wal->Open(
      dir + "/server" + std::to_string(server_id_) + ".wal", options));
  durable_dir_ = dir;
  wal_ = std::move(wal);
  return Status::OK();
}

uint64_t DataServer::WalLastBarrier() const {
  return wal_ != nullptr ? wal_->recovered_last_barrier() : 0;
}

Status DataServer::RecoverDurable(uint64_t commit_barrier) {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("durability not enabled");
  }
  const uint64_t t0 = MonoMicros();
  std::vector<std::pair<int, Instance*>> snapshot;
  {
    std::lock_guard lock(map_mu_);
    for (auto& [id, inst] : instances_) snapshot.emplace_back(id, inst.get());
  }
  for (auto& [id, inst] : snapshot) {
    std::lock_guard lock(inst->mu);
    Status s = inst->engine->RestoreFrom(SnapshotPath(id));
    if (s.IsNotFound()) continue;  // never checkpointed (or slave role)
    TR_RETURN_IF_ERROR(s);
  }
  // Drop everything past the cluster-wide commit point, then redo the
  // surviving suffix. Replay writes straight into the engines: these are
  // absolute values whose replication happens when the cluster re-seeds
  // slaves from the recovered hosts.
  TR_RETURN_IF_ERROR(wal_->TruncateToBarrier(commit_barrier));
  uint64_t replayed = 0;
  for (const WalRecord& rec : wal_->recovered()) {
    if (rec.kind != WalRecord::Kind::kOps) continue;
    Instance* inst = FindInstance(rec.instance_id);
    if (inst == nullptr) {
      return Status::Internal("wal names unknown instance " +
                              std::to_string(rec.instance_id));
    }
    std::lock_guard lock(inst->mu);
    for (const WalOp& op : rec.ops) {
      if (op.is_delete) {
        TR_RETURN_IF_ERROR(inst->engine->Delete(op.key));
      } else {
        TR_RETURN_IF_ERROR(inst->engine->Put(op.key, op.value));
      }
    }
    ++replayed;
  }
  wal_->DropRecovered();
  auto& reg = MetricRegistry::Default();
  reg.GetCounter("store.recovery.replayed_records")->Add(replayed);
  reg.GetCounter("store.recovery.duration_us")->Add(MonoMicros() - t0);
  reg.GetCounter("store.recovery.count")->Add();
  reg.GetGauge("store.recovery.last_barrier")
      ->Set(static_cast<int64_t>(commit_barrier));
  return Status::OK();
}

Status DataServer::AppendBarrier(uint64_t barrier_id) {
  if (down_.load()) return Status::Unavailable("data server down");
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("durability not enabled");
  }
  WalRecord rec;
  rec.kind = WalRecord::Kind::kBarrier;
  rec.barrier_id = barrier_id;
  return wal_->Append(rec);
}

Status DataServer::Checkpoint(uint64_t barrier_id) {
  if (down_.load()) return Status::Unavailable("data server down");
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("durability not enabled");
  }
  const uint64_t t0 = MonoMicros();
  std::vector<std::pair<int, Instance*>> snapshot;
  {
    std::lock_guard lock(map_mu_);
    for (auto& [id, inst] : instances_) snapshot.emplace_back(id, inst.get());
  }
  // All instance locks at once (instances_ is id-ordered, so every
  // checkpointer acquires in the same order): the snapshots and the WAL
  // reset see one cut, with no append landing between them.
  std::vector<std::unique_lock<ProfiledMutex>> locks;
  locks.reserve(snapshot.size());
  for (auto& [id, inst] : snapshot) locks.emplace_back(inst->mu);
  for (auto& [id, inst] : snapshot) {
    if (!inst->is_host) continue;
    TR_RETURN_IF_ERROR(inst->engine->SnapshotTo(SnapshotPath(id)));
  }
  TR_RETURN_IF_ERROR(wal_->Reset());
  if (barrier_id != 0) {
    // Re-seed the committed barrier so recovery after a post-checkpoint
    // crash still reports it (the snapshots contain its state).
    WalRecord rec;
    rec.kind = WalRecord::Kind::kBarrier;
    rec.barrier_id = barrier_id;
    TR_RETURN_IF_ERROR(wal_->Append(rec));
  }
  auto& reg = MetricRegistry::Default();
  reg.GetCounter("store.checkpoint.count")->Add();
  reg.GetCounter("store.checkpoint.duration_us")->Add(MonoMicros() - t0);
  return Status::OK();
}

}  // namespace tencentrec::tdstore
