#include "common/bytes.h"

#include <bit>

#include "common/rng.h"

namespace coic {

static_assert(std::endian::native == std::endian::little,
              "CoIC wire codec assumes a little-endian host; add byte "
              "swapping in ByteWriter/ByteReader before porting");

Status ByteReader::ReadPrefixedView(
    std::span<const std::uint8_t>& out) noexcept {
  // The one implementation of the length-prefix read; the owning and
  // string forms delegate here so bounds/rewind behavior cannot diverge.
  std::uint32_t len = 0;
  const std::size_t start = pos_;
  COIC_RETURN_IF_ERROR(ReadU32(len));
  if (remaining() < len) {
    pos_ = start;
    return Status(StatusCode::kDataLoss, "blob length exceeds buffer");
  }
  out = data_.subspan(pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status ByteReader::ReadBlobView(std::span<const std::uint8_t>& out) noexcept {
  if (tail_.empty() || tail_taken_ || remaining() != 4) {
    return ReadPrefixedView(out);
  }
  // The prefix ends exactly where the leading span does: this blob's
  // body is the trailing segment, and must match its length.
  std::uint32_t len = 0;
  COIC_RETURN_IF_ERROR(ReadU32(len));
  if (len != tail_.size()) {
    pos_ -= 4;
    return Status(StatusCode::kDataLoss, "blob length disagrees with tail");
  }
  out = tail_;
  tail_taken_ = true;
  return Status::Ok();
}

Status ByteReader::ReadBlob(ByteVec& out) {
  std::span<const std::uint8_t> view;
  COIC_RETURN_IF_ERROR(ReadPrefixedView(view));
  out.assign(view.begin(), view.end());
  return Status::Ok();
}

Status ByteReader::ReadStringView(std::string_view& out) noexcept {
  std::span<const std::uint8_t> view;
  COIC_RETURN_IF_ERROR(ReadPrefixedView(view));
  out = std::string_view(reinterpret_cast<const char*>(view.data()),
                         view.size());
  return Status::Ok();
}

Status ByteReader::ReadBytes(ByteVec& out, std::size_t n) {
  if (remaining() < n) {
    return Status(StatusCode::kDataLoss, "raw read past end of buffer");
  }
  out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
             data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return Status::Ok();
}

Status ByteReader::ReadString(std::string& out) {
  std::string_view view;
  COIC_RETURN_IF_ERROR(ReadStringView(view));
  out.assign(view);
  return Status::Ok();
}

Status ByteReader::ReadF32Vector(std::vector<float>& out) {
  std::uint32_t count = 0;
  const std::size_t start = pos_;
  COIC_RETURN_IF_ERROR(ReadU32(count));
  if (remaining() < static_cast<std::size_t>(count) * 4) {
    pos_ = start;
    return Status(StatusCode::kDataLoss, "f32 vector exceeds buffer");
  }
  out.resize(count);
  // Packed little-endian f32s on a little-endian host: one memcpy
  // replaces count bounds-checked element reads (identical bit
  // patterns). Guarded: memcpy with a null destination (empty vector)
  // is UB even at length 0.
  if (count != 0) {
    std::memcpy(out.data(), data_.data() + pos_,
                static_cast<std::size_t>(count) * 4);
  }
  pos_ += static_cast<std::size_t>(count) * 4;
  return Status::Ok();
}

Status ByteReader::ReadU64Vector(std::vector<std::uint64_t>& out) {
  std::uint32_t count = 0;
  const std::size_t start = pos_;
  COIC_RETURN_IF_ERROR(ReadU32(count));
  if (remaining() < static_cast<std::size_t>(count) * 8) {
    pos_ = start;
    return Status(StatusCode::kDataLoss, "u64 vector exceeds buffer");
  }
  out.resize(count);
  if (count != 0) {
    std::memcpy(out.data(), data_.data() + pos_,
                static_cast<std::size_t>(count) * 8);
  }
  pos_ += static_cast<std::size_t>(count) * 8;
  return Status::Ok();
}

Status ByteReader::Skip(std::size_t n) noexcept {
  if (remaining() < n) {
    return Status(StatusCode::kDataLoss, "skip past end of buffer");
  }
  pos_ += n;
  return Status::Ok();
}

ByteVec DeterministicBytes(std::size_t size, std::uint64_t seed) {
  ByteVec out(size);
  FillDeterministicBytes(out, seed);
  return out;
}

void FillDeterministicBytes(std::span<std::uint8_t> out, std::uint64_t seed) {
  const std::size_t size = out.size();
  Rng rng(seed);
  std::size_t i = 0;
  while (i + 8 <= size) {
    const std::uint64_t word = rng.NextU64();
    std::memcpy(out.data() + i, &word, 8);
    i += 8;
  }
  if (i < size) {
    const std::uint64_t word = rng.NextU64();
    std::memcpy(out.data() + i, &word, size - i);
  }
}

}  // namespace coic
