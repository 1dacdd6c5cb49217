#include "repl/scrubber.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace mmlib::repl {

namespace {

constexpr simnet::Role kReplica = simnet::Role::kReplica;

/// Bytes of one digest on the wire.
constexpr uint64_t kDigestBytes = 32;

/// Splits a document key "collection/id" back into its parts.
std::pair<std::string, std::string> SplitDocKey(const std::string& key) {
  const size_t slash = key.find('/');
  if (slash == std::string::npos) {
    return {key, ""};
  }
  return {key.substr(0, slash), key.substr(slash + 1)};
}

/// Wire size of one inventory entry in a bucket listing exchange.
uint64_t ListingEntryBytes(const KeyedDigest& item) {
  return item.first.size() + kDigestBytes;
}

}  // namespace

Result<Scrubber::Inventory> Scrubber::FileInventory(size_t replica) const {
  // Built entirely replica-side: enumeration and hashing run where the
  // bytes live, so an inventory costs no network traffic — only the tree
  // comparison does. This locality is the entire point of anti-entropy.
  filestore::FileStore* backend = files_->transport(replica)->backend();
  Inventory inventory;
  MMLIB_ASSIGN_OR_RETURN(std::vector<std::string> ids,
                         backend->ListFileIds());
  inventory.items.reserve(ids.size());
  for (const std::string& id : ids) {
    MMLIB_ASSIGN_OR_RETURN(Digest digest, backend->ContentDigest(id));
    inventory.items.emplace_back(id, digest);
  }
  MMLIB_ASSIGN_OR_RETURN(inventory.tree,
                         BuildBucketTree(inventory.items, bucket_count_));
  return inventory;
}

Result<Scrubber::Inventory> Scrubber::DocInventory(size_t replica) const {
  docstore::DocumentStore* backend = docs_->transport(replica)->backend();
  Inventory inventory;
  MMLIB_ASSIGN_OR_RETURN(std::vector<std::string> collections,
                         backend->ListCollections());
  for (const std::string& collection : collections) {
    MMLIB_ASSIGN_OR_RETURN(std::vector<std::string> ids,
                           backend->ListIds(collection));
    for (const std::string& id : ids) {
      MMLIB_ASSIGN_OR_RETURN(Digest digest,
                             backend->DocumentDigest(collection, id));
      inventory.items.emplace_back(
          ReplicatedDocumentStore::KeyFor(collection, id), digest);
    }
  }
  MMLIB_ASSIGN_OR_RETURN(inventory.tree,
                         BuildBucketTree(inventory.items, bucket_count_));
  return inventory;
}

size_t Scrubber::MajorityFileHolder(const std::string& key,
                                    bool* delete_wins) const {
  *delete_wins = false;
  std::map<Digest, size_t> votes;
  std::map<Digest, size_t> first_holder;
  size_t absent_votes = 0;
  for (size_t r = 0; r < files_->replica_count(); ++r) {
    auto digest = files_->transport(r)->backend()->ContentDigest(key);
    if (digest.ok()) {
      const Digest d = digest.value();
      if (votes[d]++ == 0) {
        first_holder[d] = r;
      }
    } else {
      ++absent_votes;
    }
  }
  size_t best_count = absent_votes;
  size_t best_holder = simnet::kNoReplica;
  bool tie = false;
  bool best_is_absent = absent_votes > 0;
  for (const auto& [digest, count] : votes) {
    if (count > best_count) {
      best_count = count;
      best_holder = first_holder[digest];
      best_is_absent = false;
      tie = false;
    } else if (count == best_count && best_count > 0) {
      tie = true;
    }
  }
  if (tie || best_count == 0) {
    return simnet::kNoReplica;
  }
  if (best_is_absent) {
    *delete_wins = true;
    return simnet::kNoReplica;
  }
  return best_holder;
}

size_t Scrubber::MajorityDocHolder(const std::string& key,
                                   bool* delete_wins) const {
  *delete_wins = false;
  const auto [collection, id] = SplitDocKey(key);
  std::map<Digest, size_t> votes;
  std::map<Digest, size_t> first_holder;
  size_t absent_votes = 0;
  for (size_t r = 0; r < docs_->replica_count(); ++r) {
    auto digest =
        docs_->transport(r)->backend()->DocumentDigest(collection, id);
    if (digest.ok()) {
      const Digest d = digest.value();
      if (votes[d]++ == 0) {
        first_holder[d] = r;
      }
    } else {
      ++absent_votes;
    }
  }
  size_t best_count = absent_votes;
  size_t best_holder = simnet::kNoReplica;
  bool tie = false;
  bool best_is_absent = absent_votes > 0;
  for (const auto& [digest, count] : votes) {
    if (count > best_count) {
      best_count = count;
      best_holder = first_holder[digest];
      best_is_absent = false;
      tie = false;
    } else if (count == best_count && best_count > 0) {
      tie = true;
    }
  }
  if (tie || best_count == 0) {
    return simnet::kNoReplica;
  }
  if (best_is_absent) {
    *delete_wins = true;
    return simnet::kNoReplica;
  }
  return best_holder;
}

Status Scrubber::RepairFileCopy(size_t from, size_t to,
                                const std::string& key,
                                ScrubReport* report) {
  filestore::FileStore* source = files_->transport(from)->backend();
  MMLIB_ASSIGN_OR_RETURN(Bytes bytes, source->LoadFile(key));
  const simnet::TransferAttempt attempt =
      network_->TryTransferBetween(kReplica, from, to, bytes.size());
  if (!attempt.status.ok()) {
    ++report->unresolved;  // pair went unreachable mid-session; next pass
    return Status::OK();
  }
  MMLIB_RETURN_IF_ERROR(
      files_->transport(to)->backend()->WriteAllocated(key, bytes));
  ++report->repaired_files;
  files_->RecordScrubRepair(to);
  return Status::OK();
}

Status Scrubber::RepairDocCopy(size_t from, size_t to, const std::string& key,
                               ScrubReport* report) {
  const auto [collection, id] = SplitDocKey(key);
  docstore::DocumentStore* source = docs_->transport(from)->backend();
  MMLIB_ASSIGN_OR_RETURN(json::Value doc, source->Get(collection, id));
  const simnet::TransferAttempt attempt =
      network_->TryTransferBetween(kReplica, from, to, doc.Dump().size());
  if (!attempt.status.ok()) {
    ++report->unresolved;
    return Status::OK();
  }
  MMLIB_RETURN_IF_ERROR(docs_->transport(to)->backend()->InsertWithId(
      collection, id, std::move(doc)));
  ++report->repaired_documents;
  docs_->RecordScrubRepair(to);
  return Status::OK();
}

Status Scrubber::ReconcileFile(size_t a, size_t b, const std::string& key,
                               const Digest* digest_a, const Digest* digest_b,
                               ScrubReport* report) {
  bool should_delete = false;
  size_t source = simnet::kNoReplica;
  if (files_->IsTombstoned(key)) {
    should_delete = true;
  } else if (const Digest* expected = files_->FindExpectedDigest(key)) {
    if (digest_a != nullptr && *digest_a == *expected) {
      source = a;
    } else if (digest_b != nullptr && *digest_b == *expected) {
      source = b;
    } else {
      // Neither session side holds the good copy; any other replica with
      // it can supply the repair.
      for (size_t r = 0; r < files_->replica_count(); ++r) {
        if (r == a || r == b) {
          continue;
        }
        auto digest = files_->transport(r)->backend()->ContentDigest(key);
        if (digest.ok() && digest.value() == *expected) {
          source = r;
          break;
        }
      }
    }
  } else {
    source = MajorityFileHolder(key, &should_delete);
  }
  if (should_delete) {
    // A straggler copy of a quorum-deleted (or majority-absent) entry must
    // be re-deleted, not re-spread.
    for (const auto& [side, digest] :
         {std::make_pair(a, digest_a), std::make_pair(b, digest_b)}) {
      if (digest != nullptr) {
        const simnet::TransferAttempt attempt =
            network_->TryTransferBetween(kReplica, side == a ? b : a, side,
                                         key.size());
        if (attempt.status.ok() &&
            files_->transport(side)->backend()->Delete(key).ok()) {
          ++report->repaired_files;
          files_->RecordScrubRepair(side);
        }
      }
    }
    return Status::OK();
  }
  if (source == simnet::kNoReplica) {
    ++report->unresolved;
    return Status::OK();
  }
  MMLIB_ASSIGN_OR_RETURN(
      Digest good, files_->transport(source)->backend()->ContentDigest(key));
  for (const auto& [side, digest] :
       {std::make_pair(a, digest_a), std::make_pair(b, digest_b)}) {
    if (side == source) {
      continue;
    }
    if (digest == nullptr || !(*digest == good)) {
      MMLIB_RETURN_IF_ERROR(RepairFileCopy(source, side, key, report));
    }
  }
  return Status::OK();
}

Status Scrubber::ReconcileDoc(size_t a, size_t b, const std::string& key,
                              const Digest* digest_a, const Digest* digest_b,
                              ScrubReport* report) {
  const auto [collection, id] = SplitDocKey(key);
  bool should_delete = false;
  size_t source = simnet::kNoReplica;
  if (docs_->IsTombstoned(key)) {
    should_delete = true;
  } else if (const Digest* expected = docs_->FindExpectedDigest(key)) {
    if (digest_a != nullptr && *digest_a == *expected) {
      source = a;
    } else if (digest_b != nullptr && *digest_b == *expected) {
      source = b;
    } else {
      for (size_t r = 0; r < docs_->replica_count(); ++r) {
        if (r == a || r == b) {
          continue;
        }
        auto digest =
            docs_->transport(r)->backend()->DocumentDigest(collection, id);
        if (digest.ok() && digest.value() == *expected) {
          source = r;
          break;
        }
      }
    }
  } else {
    source = MajorityDocHolder(key, &should_delete);
  }
  if (should_delete) {
    for (const auto& [side, digest] :
         {std::make_pair(a, digest_a), std::make_pair(b, digest_b)}) {
      if (digest != nullptr) {
        const simnet::TransferAttempt attempt =
            network_->TryTransferBetween(kReplica, side == a ? b : a, side,
                                         key.size());
        if (attempt.status.ok() &&
            docs_->transport(side)->backend()->Delete(collection, id).ok()) {
          ++report->repaired_documents;
          docs_->RecordScrubRepair(side);
        }
      }
    }
    return Status::OK();
  }
  if (source == simnet::kNoReplica) {
    ++report->unresolved;
    return Status::OK();
  }
  MMLIB_ASSIGN_OR_RETURN(Digest good, docs_->transport(source)
                                          ->backend()
                                          ->DocumentDigest(collection, id));
  for (const auto& [side, digest] :
       {std::make_pair(a, digest_a), std::make_pair(b, digest_b)}) {
    if (side == source) {
      continue;
    }
    if (digest == nullptr || !(*digest == good)) {
      MMLIB_RETURN_IF_ERROR(RepairDocCopy(source, side, key, report));
    }
  }
  return Status::OK();
}

namespace {

/// Keys of `items` that fall into one of `buckets`, with their digests.
std::map<std::string, Digest> BucketSlice(const std::vector<KeyedDigest>& items,
                                          const std::set<size_t>& buckets,
                                          size_t bucket_count) {
  std::map<std::string, Digest> slice;
  for (const auto& [key, digest] : items) {
    if (buckets.count(BucketForKey(key, bucket_count)) != 0) {
      slice.emplace(key, digest);
    }
  }
  return slice;
}

uint64_t SliceBytes(const std::map<std::string, Digest>& slice) {
  uint64_t bytes = 0;
  for (const auto& [key, digest] : slice) {
    bytes += ListingEntryBytes({key, digest});
  }
  return bytes;
}

}  // namespace

Status Scrubber::ScrubPairFiles(size_t a, size_t b, ScrubReport* report) {
  MMLIB_ASSIGN_OR_RETURN(Inventory inv_a, FileInventory(a));
  MMLIB_ASSIGN_OR_RETURN(Inventory inv_b, FileInventory(b));
  // Root exchange: one digest each way.
  if (!network_->TryTransferBetween(kReplica, a, b, kDigestBytes).status.ok() ||
      !network_->TryTransferBetween(kReplica, b, a, kDigestBytes).status.ok()) {
    return Status::OK();  // pair lost mid-session; next pass retries
  }
  if (inv_a.tree.root() == inv_b.tree.root()) {
    ++report->root_matches;
    return Status::OK();
  }
  MMLIB_ASSIGN_OR_RETURN(MerkleDiff diff,
                         MerkleTree::Diff(inv_a.tree, inv_b.tree));
  report->bucket_comparisons += diff.comparisons;
  // Descent traffic: the compared node digests travel both ways.
  (void)network_->TryTransferBetween(kReplica, a, b,
                                     diff.comparisons * kDigestBytes);
  (void)network_->TryTransferBetween(kReplica, b, a,
                                     diff.comparisons * kDigestBytes);
  const std::set<size_t> buckets(diff.changed_leaves.begin(),
                                 diff.changed_leaves.end());
  const auto slice_a = BucketSlice(inv_a.items, buckets, bucket_count_);
  const auto slice_b = BucketSlice(inv_b.items, buckets, bucket_count_);
  // Bucket listing exchange: each side ships its slice of the mismatched
  // buckets (keys + digests) to the other.
  (void)network_->TryTransferBetween(kReplica, a, b, SliceBytes(slice_a));
  (void)network_->TryTransferBetween(kReplica, b, a, SliceBytes(slice_b));
  std::set<std::string> keys;
  for (const auto& [key, digest] : slice_a) {
    keys.insert(key);
  }
  for (const auto& [key, digest] : slice_b) {
    keys.insert(key);
  }
  for (const std::string& key : keys) {
    const auto it_a = slice_a.find(key);
    const auto it_b = slice_b.find(key);
    const Digest* digest_a = it_a != slice_a.end() ? &it_a->second : nullptr;
    const Digest* digest_b = it_b != slice_b.end() ? &it_b->second : nullptr;
    if (digest_a != nullptr && digest_b != nullptr &&
        *digest_a == *digest_b) {
      continue;  // same key, same content — a different key diverged
    }
    MMLIB_RETURN_IF_ERROR(
        ReconcileFile(a, b, key, digest_a, digest_b, report));
  }
  return Status::OK();
}

Status Scrubber::ScrubPairDocs(size_t a, size_t b, ScrubReport* report) {
  MMLIB_ASSIGN_OR_RETURN(Inventory inv_a, DocInventory(a));
  MMLIB_ASSIGN_OR_RETURN(Inventory inv_b, DocInventory(b));
  if (!network_->TryTransferBetween(kReplica, a, b, kDigestBytes).status.ok() ||
      !network_->TryTransferBetween(kReplica, b, a, kDigestBytes).status.ok()) {
    return Status::OK();
  }
  if (inv_a.tree.root() == inv_b.tree.root()) {
    ++report->root_matches;
    return Status::OK();
  }
  MMLIB_ASSIGN_OR_RETURN(MerkleDiff diff,
                         MerkleTree::Diff(inv_a.tree, inv_b.tree));
  report->bucket_comparisons += diff.comparisons;
  (void)network_->TryTransferBetween(kReplica, a, b,
                                     diff.comparisons * kDigestBytes);
  (void)network_->TryTransferBetween(kReplica, b, a,
                                     diff.comparisons * kDigestBytes);
  const std::set<size_t> buckets(diff.changed_leaves.begin(),
                                 diff.changed_leaves.end());
  const auto slice_a = BucketSlice(inv_a.items, buckets, bucket_count_);
  const auto slice_b = BucketSlice(inv_b.items, buckets, bucket_count_);
  (void)network_->TryTransferBetween(kReplica, a, b, SliceBytes(slice_a));
  (void)network_->TryTransferBetween(kReplica, b, a, SliceBytes(slice_b));
  std::set<std::string> keys;
  for (const auto& [key, digest] : slice_a) {
    keys.insert(key);
  }
  for (const auto& [key, digest] : slice_b) {
    keys.insert(key);
  }
  for (const std::string& key : keys) {
    const auto it_a = slice_a.find(key);
    const auto it_b = slice_b.find(key);
    const Digest* digest_a = it_a != slice_a.end() ? &it_a->second : nullptr;
    const Digest* digest_b = it_b != slice_b.end() ? &it_b->second : nullptr;
    if (digest_a != nullptr && digest_b != nullptr &&
        *digest_a == *digest_b) {
      continue;
    }
    MMLIB_RETURN_IF_ERROR(ReconcileDoc(a, b, key, digest_a, digest_b, report));
  }
  return Status::OK();
}

bool Scrubber::CheckConverged() const {
  if (files_ != nullptr) {
    Digest reference;
    for (size_t r = 0; r < files_->replica_count(); ++r) {
      auto inventory = FileInventory(r);
      if (!inventory.ok()) {
        return false;
      }
      if (r == 0) {
        reference = inventory.value().tree.root();
      } else if (!(inventory.value().tree.root() == reference)) {
        return false;
      }
    }
  }
  if (docs_ != nullptr) {
    Digest reference;
    for (size_t r = 0; r < docs_->replica_count(); ++r) {
      auto inventory = DocInventory(r);
      if (!inventory.ok()) {
        return false;
      }
      if (r == 0) {
        reference = inventory.value().tree.root();
      } else if (!(inventory.value().tree.root() == reference)) {
        return false;
      }
    }
  }
  return true;
}

Result<ScrubReport> Scrubber::ScrubOnce() {
  network_->ApplyDueReplicaEvents();
  ScrubReport report;
  size_t replica_count = 0;
  if (files_ != nullptr) {
    replica_count = files_->replica_count();
  }
  if (docs_ != nullptr) {
    replica_count = std::max(replica_count, docs_->replica_count());
  }
  for (size_t a = 0; a < replica_count; ++a) {
    for (size_t b = a + 1; b < replica_count; ++b) {
      if (!network_->PairReachable(kReplica, a, b)) {
        continue;
      }
      ++report.sessions;
      if (files_ != nullptr && b < files_->replica_count()) {
        MMLIB_RETURN_IF_ERROR(ScrubPairFiles(a, b, &report));
      }
      if (docs_ != nullptr && b < docs_->replica_count()) {
        MMLIB_RETURN_IF_ERROR(ScrubPairDocs(a, b, &report));
      }
    }
  }
  report.converged = CheckConverged();
  lifetime_.sessions += report.sessions;
  lifetime_.root_matches += report.root_matches;
  lifetime_.bucket_comparisons += report.bucket_comparisons;
  lifetime_.repaired_files += report.repaired_files;
  lifetime_.repaired_documents += report.repaired_documents;
  lifetime_.unresolved += report.unresolved;
  lifetime_.converged = report.converged;
  return report;
}

}  // namespace mmlib::repl
