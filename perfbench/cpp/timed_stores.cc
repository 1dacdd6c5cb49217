#include "timed_stores.h"

#include <utility>

#include "trace.h"

namespace perfbench {

using mmlib::Bytes;
using mmlib::Digest;
using mmlib::Result;
using mmlib::Status;

Result<std::string> TimedFileStore::SaveFile(const Bytes& content) {
  Tracer::Scope span("filestore.save");
  span.set_bytes(content.size());
  return inner_->SaveFile(content);
}

Result<std::string> TimedFileStore::AllocateFileId() {
  Tracer::Scope span("filestore.alloc");
  return inner_->AllocateFileId();
}

Status TimedFileStore::WriteAllocated(const std::string& id,
                                      const Bytes& content) {
  Tracer::Scope span("filestore.save");
  span.set_bytes(content.size());
  return inner_->WriteAllocated(id, content);
}

Result<Bytes> TimedFileStore::LoadFile(const std::string& id) {
  Tracer::Scope span("filestore.load");
  Result<Bytes> loaded = inner_->LoadFile(id);
  if (loaded.ok()) {
    span.set_bytes(loaded.value().size());
  }
  return loaded;
}

Status TimedFileStore::Delete(const std::string& id) {
  Tracer::Scope span("filestore.other");
  return inner_->Delete(id);
}

Result<size_t> TimedFileStore::FileSize(const std::string& id) {
  Tracer::Scope span("filestore.other");
  return inner_->FileSize(id);
}

Result<std::vector<std::string>> TimedFileStore::ListFileIds() {
  Tracer::Scope span("filestore.other");
  return inner_->ListFileIds();
}

Result<Digest> TimedFileStore::ContentDigest(const std::string& id) {
  Tracer::Scope span("filestore.other");
  return inner_->ContentDigest(id);
}

void TimedFileStore::ReportDamaged(const std::string& id) {
  inner_->ReportDamaged(id);
}

size_t TimedFileStore::TotalStoredBytes() const {
  return inner_->TotalStoredBytes();
}

size_t TimedFileStore::FileCount() const { return inner_->FileCount(); }

Result<std::string> TimedDocumentStore::Insert(const std::string& collection,
                                               mmlib::json::Value doc) {
  Tracer::Scope span("docstore.insert");
  return inner_->Insert(collection, std::move(doc));
}

Result<std::string> TimedDocumentStore::AllocateDocId(
    const std::string& collection) {
  Tracer::Scope span("docstore.alloc");
  return inner_->AllocateDocId(collection);
}

Status TimedDocumentStore::InsertWithId(const std::string& collection,
                                        const std::string& id,
                                        mmlib::json::Value doc) {
  Tracer::Scope span("docstore.insert");
  return inner_->InsertWithId(collection, id, std::move(doc));
}

Result<mmlib::json::Value> TimedDocumentStore::Get(
    const std::string& collection, const std::string& id) {
  Tracer::Scope span("docstore.get");
  return inner_->Get(collection, id);
}

Status TimedDocumentStore::Delete(const std::string& collection,
                                  const std::string& id) {
  Tracer::Scope span("docstore.other");
  return inner_->Delete(collection, id);
}

Result<std::vector<std::string>> TimedDocumentStore::ListIds(
    const std::string& collection) {
  Tracer::Scope span("docstore.other");
  return inner_->ListIds(collection);
}

Result<std::vector<std::string>> TimedDocumentStore::FindByField(
    const std::string& collection, const std::string& key,
    const std::string& value) {
  Tracer::Scope span("docstore.other");
  return inner_->FindByField(collection, key, value);
}

Result<std::vector<std::string>> TimedDocumentStore::ListCollections() {
  Tracer::Scope span("docstore.other");
  return inner_->ListCollections();
}

Result<Digest> TimedDocumentStore::DocumentDigest(
    const std::string& collection, const std::string& id) {
  Tracer::Scope span("docstore.other");
  return inner_->DocumentDigest(collection, id);
}

size_t TimedDocumentStore::TotalStoredBytes() const {
  return inner_->TotalStoredBytes();
}

size_t TimedDocumentStore::DocumentCount() const {
  return inner_->DocumentCount();
}

}  // namespace perfbench
