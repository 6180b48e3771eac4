#include "state/slab_log.h"

#include <cstring>
#include <utility>
#include <vector>

#include "util/wire.h"

namespace fedadmm {
namespace {

constexpr uint32_t kMagic = 0x47424C53u;  // 'SLBG' little-endian
// magic(4) + type(1) + client(4) + slot(4) + value(8) + payload_len(8) +
// payload_crc(4); the trailing header_crc(4) covers these 33 bytes.
constexpr size_t kHeaderBody = 33;
constexpr size_t kHeaderSize = kHeaderBody + 4;

bool ValidType(uint8_t type) {
  return type >= static_cast<uint8_t>(SlabLog::RecordType::kSlab) &&
         type <= static_cast<uint8_t>(SlabLog::RecordType::kCommit);
}

}  // namespace

Result<std::unique_ptr<SlabLog>> SlabLog::Open(const std::string& path,
                                               bool truncate) {
  std::unique_ptr<SlabLog> log(new SlabLog());
  FEDADMM_RETURN_IF_ERROR(log->file_.Open(path, truncate));
  if (!truncate && log->file_.size() > 0) {
    // Recovery: find the valid prefix and drop any torn tail so the next
    // append lands right after the last intact record.
    FEDADMM_ASSIGN_OR_RETURN(int64_t valid_end, log->Scan(nullptr));
    if (valid_end < log->file_.size()) {
      FEDADMM_RETURN_IF_ERROR(log->file_.Truncate(valid_end));
    }
  }
  return log;
}

Result<int64_t> SlabLog::Append(RecordType type, int client, int slot,
                                int64_t value,
                                std::span<const uint8_t> payload) {
  std::vector<uint8_t> header;
  header.reserve(kHeaderSize);
  wire::Writer w(&header);
  w.PutU32(kMagic);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU32(static_cast<uint32_t>(client));
  w.PutU32(static_cast<uint32_t>(slot));
  w.PutI64(value);
  w.PutU64(payload.size());
  w.PutU32(Crc32(payload.data(), payload.size()));
  w.PutU32(Crc32(header.data(), header.size()));
  int64_t offset = 0;
  FEDADMM_RETURN_IF_ERROR(file_.Append(header.data(), header.size(), &offset));
  if (!payload.empty()) {
    FEDADMM_RETURN_IF_ERROR(file_.Append(payload.data(), payload.size()));
  }
  return offset;
}

Result<int64_t> SlabLog::AppendFloats(RecordType type, int client, int slot,
                                      std::span<const float> payload) {
  return Append(type, client, slot, /*value=*/0,
                {reinterpret_cast<const uint8_t*>(payload.data()),
                 payload.size() * sizeof(float)});
}

Status SlabLog::ReadRecord(int64_t offset, Record* out, bool* valid) const {
  *valid = false;
  if (offset < 0 || offset + static_cast<int64_t>(kHeaderSize) >
                        file_.size()) {
    return Status::OK();  // past the end: not a record, not an I/O error
  }
  uint8_t header[kHeaderSize];
  FEDADMM_RETURN_IF_ERROR(file_.ReadAt(offset, header, kHeaderSize));
  // A fixed-size buffer, so the parse below cannot run short.
  wire::ReaderView reader(header, kHeaderSize);
  uint32_t magic = 0;
  uint8_t type = 0;
  uint32_t client = 0;
  uint32_t slot = 0;
  int64_t value = 0;
  uint64_t payload_len = 0;
  uint32_t payload_crc = 0;
  uint32_t header_crc = 0;
  FEDADMM_RETURN_IF_ERROR(reader.TryU32(&magic));
  FEDADMM_RETURN_IF_ERROR(reader.TryU8(&type));
  FEDADMM_RETURN_IF_ERROR(reader.TryU32(&client));
  FEDADMM_RETURN_IF_ERROR(reader.TryU32(&slot));
  FEDADMM_RETURN_IF_ERROR(reader.TryI64(&value));
  FEDADMM_RETURN_IF_ERROR(reader.TryU64(&payload_len));
  FEDADMM_RETURN_IF_ERROR(reader.TryU32(&payload_crc));
  FEDADMM_RETURN_IF_ERROR(reader.TryU32(&header_crc));
  if (magic != kMagic || !ValidType(type) ||
      header_crc != Crc32(header, kHeaderBody)) {
    return Status::OK();
  }
  const int64_t payload_end =
      offset + static_cast<int64_t>(kHeaderSize + payload_len);
  if (payload_end > file_.size()) return Status::OK();  // torn payload
  std::string payload(payload_len, '\0');
  if (payload_len > 0) {
    FEDADMM_RETURN_IF_ERROR(file_.ReadAt(
        offset + static_cast<int64_t>(kHeaderSize), payload.data(),
        payload_len));
  }
  if (payload_crc != Crc32(payload.data(), payload.size())) {
    return Status::OK();
  }
  out->type = static_cast<RecordType>(type);
  out->client = static_cast<int>(client);
  out->slot = static_cast<int>(slot);
  out->value = value;
  out->payload = std::move(payload);
  out->offset = offset;
  *valid = true;
  return Status::OK();
}

Status SlabLog::ReadAt(int64_t offset, Record* out) const {
  bool valid = false;
  FEDADMM_RETURN_IF_ERROR(ReadRecord(offset, out, &valid));
  if (!valid) {
    return Status::IoError("SlabLog: no valid record at offset " +
                           std::to_string(offset) + " in '" + path() + "'");
  }
  return Status::OK();
}

Status SlabLog::ReadFloatsAt(int64_t offset, std::span<float> out) const {
  Record record;
  FEDADMM_RETURN_IF_ERROR(ReadAt(offset, &record));
  if (record.payload.size() != out.size() * sizeof(float)) {
    return Status::IoError(
        "SlabLog: slab payload at offset " + std::to_string(offset) +
        " holds " + std::to_string(record.payload.size() / sizeof(float)) +
        " floats, want " + std::to_string(out.size()));
  }
  std::memcpy(out.data(), record.payload.data(), record.payload.size());
  return Status::OK();
}

Result<int64_t> SlabLog::Scan(
    const std::function<void(const Record&)>& visitor) const {
  int64_t offset = 0;
  Record record;
  while (true) {
    bool valid = false;
    FEDADMM_RETURN_IF_ERROR(ReadRecord(offset, &record, &valid));
    if (!valid) break;
    offset += static_cast<int64_t>(kHeaderSize + record.payload.size());
    if (visitor) visitor(record);
  }
  return offset;
}

Status SlabLog::Sync() { return file_.Sync(); }

}  // namespace fedadmm
