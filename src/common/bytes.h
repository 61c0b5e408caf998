// Byte-buffer primitives: ByteWriter / ByteReader.
//
// All CoIC wire messages are encoded little-endian with explicit widths.
// ByteWriter appends to a growable buffer; ByteReader is a non-owning
// cursor over a span that reports truncation as Status (kDataLoss)
// instead of UB — the decoder must be safe on hostile input since in the
// real deployment these bytes arrive from the network.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace coic {

using ByteVec = std::vector<std::uint8_t>;

/// Appends fixed-width little-endian scalars, length-prefixed blobs and
/// strings to an owned buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }
  /// Adopts `recycled`'s heap buffer (cleared, capacity kept) so pooled
  /// control-frame encodes skip the allocation once the pool is warm.
  explicit ByteWriter(ByteVec&& recycled) : buf_(std::move(recycled)) {
    buf_.clear();
  }

  void WriteU8(std::uint8_t v) { buf_.push_back(v); }
  void WriteU16(std::uint16_t v) { AppendLE(&v, 2); }
  void WriteU32(std::uint32_t v) { AppendLE(&v, 4); }
  void WriteU64(std::uint64_t v) { AppendLE(&v, 8); }
  void WriteI64(std::int64_t v) { WriteU64(static_cast<std::uint64_t>(v)); }
  void WriteF32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    WriteU32(bits);
  }
  void WriteF64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    WriteU64(bits);
  }

  /// Raw bytes, no length prefix.
  void WriteRaw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// u32 length prefix + bytes.
  void WriteBlob(std::span<const std::uint8_t> data) {
    WriteU32(static_cast<std::uint32_t>(data.size()));
    WriteRaw(data);
  }

  /// u32 length prefix + UTF-8 bytes.
  void WriteString(std::string_view s) {
    WriteU32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// u32 count + tightly packed f32s.
  void WriteF32Vector(std::span<const float> v) {
    WriteU32(static_cast<std::uint32_t>(v.size()));
    for (const float f : v) WriteF32(f);
  }

  /// u32 count + tightly packed u64s (delta-summary key lists).
  void WriteU64Vector(std::span<const std::uint64_t> v) {
    WriteU32(static_cast<std::uint32_t>(v.size()));
    for (const std::uint64_t x : v) WriteU64(x);
  }

  /// Appends `n` zero bytes and returns them, for producers that fill
  /// their output in place (quantized rasters, deterministic padding)
  /// instead of through a temporary buffer.
  [[nodiscard]] std::span<std::uint8_t> Extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return std::span<std::uint8_t>(buf_).subspan(at);
  }

  /// Overwrites 4 already-written bytes at `offset` (little-endian).
  /// Lets encoders emit a length placeholder and fix it up afterwards,
  /// avoiding a separate payload buffer + copy on the envelope hot path.
  void PatchU32(std::size_t offset, std::uint32_t v) {
    COIC_CHECK(offset + 4 <= buf_.size());
    std::memcpy(buf_.data() + offset, &v, 4);
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept { return buf_; }

  /// Moves the buffer out; the writer is empty afterwards.
  [[nodiscard]] ByteVec TakeBytes() noexcept { return std::move(buf_); }

 private:
  void AppendLE(const void* p, std::size_t n) {
    // Little-endian host assumed (x86-64 / aarch64 Linux); a static_assert
    // in bytes.cc guards the port to a BE platform.
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), bytes, bytes + n);
  }
  ByteVec buf_;
};

/// Sequential decoder over a non-owned byte span. Every Read* returns
/// Status and leaves the cursor untouched on failure.
///
/// A reader may also carry a trailing segment: the body of the message's
/// final blob, delivered as a separate buffer (a gathered frame). Every
/// read works on the leading span alone; only a ReadBlobView whose length
/// prefix ends exactly at the end of that span, and equals the trailing
/// segment's size, returns the trailing segment. Any other read that
/// would reach into it fails with kDataLoss, and AtEnd() also requires
/// the trailing segment to have been consumed.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}
  /// Gathered form: `data` followed by the final blob's body `tail`. An
  /// empty `tail` reads exactly like the one-span form.
  ByteReader(std::span<const std::uint8_t> data,
             std::span<const std::uint8_t> tail) noexcept
      : data_(data), tail_(tail) {}

  /// Bytes left in the leading span (the trailing segment, if any, is
  /// only reachable through ReadBlobView).
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool AtEnd() const noexcept {
    return pos_ == data_.size() && (tail_.empty() || tail_taken_);
  }

  Status ReadU8(std::uint8_t& out) noexcept { return ReadLE(&out, 1); }
  Status ReadU16(std::uint16_t& out) noexcept { return ReadLE(&out, 2); }
  Status ReadU32(std::uint32_t& out) noexcept { return ReadLE(&out, 4); }
  Status ReadU64(std::uint64_t& out) noexcept { return ReadLE(&out, 8); }
  Status ReadI64(std::int64_t& out) noexcept {
    std::uint64_t u;
    COIC_RETURN_IF_ERROR(ReadU64(u));
    out = static_cast<std::int64_t>(u);
    return Status::Ok();
  }
  Status ReadF32(float& out) noexcept {
    std::uint32_t bits = 0;
    COIC_RETURN_IF_ERROR(ReadU32(bits));
    std::memcpy(&out, &bits, 4);
    return Status::Ok();
  }
  Status ReadF64(double& out) noexcept {
    std::uint64_t bits = 0;
    COIC_RETURN_IF_ERROR(ReadU64(bits));
    std::memcpy(&out, &bits, 8);
    return Status::Ok();
  }

  /// Reads a u32-length-prefixed blob into an owned vector.
  Status ReadBlob(ByteVec& out);

  /// Borrowed-view variant of ReadBlob: `out` points into the reader's
  /// underlying buffer (valid only while that buffer lives). This is the
  /// zero-copy path the view decoders use on the client receive side —
  /// the multi-MB model/panorama blobs are never duplicated into an
  /// owned vector. The only read that can return the trailing segment.
  Status ReadBlobView(std::span<const std::uint8_t>& out) noexcept;

  /// Borrowed-view variant of ReadString (same lifetime caveat).
  Status ReadStringView(std::string_view& out) noexcept;

  /// Reads exactly `n` raw bytes (no length prefix) into an owned vector.
  Status ReadBytes(ByteVec& out, std::size_t n);

  /// Reads a u32-length-prefixed string.
  Status ReadString(std::string& out);

  /// Reads a u32-count-prefixed packed f32 vector.
  Status ReadF32Vector(std::vector<float>& out);

  /// Reads a u32-count-prefixed packed u64 vector.
  Status ReadU64Vector(std::vector<std::uint64_t>& out);

  /// Reads exactly `n` raw little-endian bytes into caller storage with
  /// one bounds check — the bulk path for packed scalar arrays (mesh
  /// vertices, descriptor vectors) that per-element Read* calls make the
  /// decode hot spot.
  Status ReadRaw(void* out, std::size_t n) noexcept { return ReadLE(out, n); }

  /// Skips n bytes.
  Status Skip(std::size_t n) noexcept;

 private:
  Status ReadLE(void* out, std::size_t n) noexcept {
    if (remaining() < n) {
      return Status(StatusCode::kDataLoss, "buffer truncated");
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  /// The length-prefixed read within the leading span; ReadBlobView adds
  /// the trailing-segment case on top.
  Status ReadPrefixedView(std::span<const std::uint8_t>& out) noexcept;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::span<const std::uint8_t> tail_;
  bool tail_taken_ = false;
};

/// Convenience: a ByteVec filled with deterministic pseudo-random content
/// of exactly `size` bytes (used to fabricate payloads whose ContentDigest
/// is stable across runs).
ByteVec DeterministicBytes(std::size_t size, std::uint64_t seed);

/// Fill-in-place form: writes into `out` exactly the bytes
/// DeterministicBytes(out.size(), seed) returns.
void FillDeterministicBytes(std::span<std::uint8_t> out, std::uint64_t seed);

}  // namespace coic
