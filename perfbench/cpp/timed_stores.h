#pragma once

#include <string>
#include <vector>

#include "docstore/document_store.h"
#include "filestore/file_store.h"

namespace perfbench {

/// Pass-through FileStore that opens a span around every call into the
/// wrapped store. Placed between the save/recover services and the real
/// store, so the store time of an operation shows as child spans of the
/// operation's span. Without an active tracer it only forwards.
class TimedFileStore : public mmlib::filestore::FileStore {
 public:
  explicit TimedFileStore(mmlib::filestore::FileStore* inner) : inner_(inner) {}

  mmlib::Result<std::string> SaveFile(const mmlib::Bytes& content) override;
  mmlib::Result<std::string> AllocateFileId() override;
  mmlib::Status WriteAllocated(const std::string& id,
                               const mmlib::Bytes& content) override;
  mmlib::Result<mmlib::Bytes> LoadFile(const std::string& id) override;
  mmlib::Status Delete(const std::string& id) override;
  mmlib::Result<size_t> FileSize(const std::string& id) override;
  mmlib::Result<std::vector<std::string>> ListFileIds() override;
  mmlib::Result<mmlib::Digest> ContentDigest(const std::string& id) override;
  void ReportDamaged(const std::string& id) override;
  size_t TotalStoredBytes() const override;
  size_t FileCount() const override;

 private:
  mmlib::filestore::FileStore* inner_;
};

/// DocumentStore counterpart of TimedFileStore.
class TimedDocumentStore : public mmlib::docstore::DocumentStore {
 public:
  explicit TimedDocumentStore(mmlib::docstore::DocumentStore* inner)
      : inner_(inner) {}

  mmlib::Result<std::string> Insert(const std::string& collection,
                                    mmlib::json::Value doc) override;
  mmlib::Result<std::string> AllocateDocId(
      const std::string& collection) override;
  mmlib::Status InsertWithId(const std::string& collection,
                             const std::string& id,
                             mmlib::json::Value doc) override;
  mmlib::Result<mmlib::json::Value> Get(const std::string& collection,
                                        const std::string& id) override;
  mmlib::Status Delete(const std::string& collection,
                       const std::string& id) override;
  mmlib::Result<std::vector<std::string>> ListIds(
      const std::string& collection) override;
  mmlib::Result<std::vector<std::string>> FindByField(
      const std::string& collection, const std::string& key,
      const std::string& value) override;
  mmlib::Result<std::vector<std::string>> ListCollections() override;
  mmlib::Result<mmlib::Digest> DocumentDigest(const std::string& collection,
                                              const std::string& id) override;
  size_t TotalStoredBytes() const override;
  size_t DocumentCount() const override;

 private:
  mmlib::docstore::DocumentStore* inner_;
};

}  // namespace perfbench
