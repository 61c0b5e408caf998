// Field-list wire codec.
//
// Every wire message is described once, by a Schema<M> specialization
// (messages.h) that names its fields in wire order:
//
//   template <> struct Schema<SummaryAck> {
//     static constexpr MessageType kType = MessageType::kSummaryAck;
//     static auto Fields(auto& m, auto&& f) {
//       return f(m.acker_edge, m.subject_edge, m.version);
//     }
//     static Status Check(const auto& m);  // optional cross-field rule
//   };
//
// Fields() calls `f` once with every field (m may be const). From that
// one list this header derives the payload size (WireSize), the encode
// into a ByteWriter (EncodePayload) and the bounds-checked decode
// (DecodePayload), through one overload per field type below. Check()
// runs after every field decoded. A borrowed `*View` twin shares its
// owning type's list by inheriting its Schema; an owning Schema that
// names `using View` decodes through that view and copies the borrowed
// fields out, so it accepts exactly the (gathered) frames the view does.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"
#include "proto/descriptor.h"

namespace coic::proto {

template <typename M>
struct Schema;

/// A type with a field list (a message, a view, or a nested struct).
template <typename M>
concept Described = requires { sizeof(Schema<M>); };

/// The region digest's member hint: two index-aligned vectors that
/// travel as one field — u32 count, then count × (u32 edge, u64 keys).
template <typename Edges, typename Keys>
struct MemberHints {
  Edges& edges;
  Keys& keys;
};
template <typename E, typename K>
MemberHints(E&, K&) -> MemberHints<E, K>;

/// The first rule whose condition holds, as a kDataLoss Status; Ok when
/// none does. Schemas spell their cross-field checks with it.
inline Status FirstViolation(
    std::initializer_list<std::pair<bool, const char*>> rules) {
  for (const auto& [violated, what] : rules) {
    if (violated) return Status(StatusCode::kDataLoss, what);
  }
  return Status::Ok();
}

template <typename... Ms>
struct TypeList {};

/// Calls f(std::type_identity<M>{}) for every M in the list.
template <typename... Ms, typename F>
void ForEachType(TypeList<Ms...>, F&& f) {
  (f(std::type_identity<Ms>{}), ...);
}

namespace codec {

// Scalars: fixed-width little-endian.
template <std::unsigned_integral T>
constexpr Bytes FieldSize(T) { return sizeof(T); }
template <std::unsigned_integral T>
void WriteField(ByteWriter& w, T v) {
  static_assert(sizeof(T) <= 8);
  if constexpr (sizeof(T) == 1) w.WriteU8(v);
  else if constexpr (sizeof(T) == 2) w.WriteU16(v);
  else if constexpr (sizeof(T) == 4) w.WriteU32(v);
  else w.WriteU64(v);
}
template <std::unsigned_integral T>
Status ReadField(ByteReader& r, T& v) {
  if constexpr (sizeof(T) == 1) return r.ReadU8(v);
  else if constexpr (sizeof(T) == 2) return r.ReadU16(v);
  else if constexpr (sizeof(T) == 4) return r.ReadU32(v);
  else return r.ReadU64(v);
}

constexpr Bytes FieldSize(float) { return 4; }
inline void WriteField(ByteWriter& w, float v) { w.WriteF32(v); }
inline Status ReadField(ByteReader& r, float& v) { return r.ReadF32(v); }

// Enums: one byte, rejected unless InWireRange(value) (found by ADL next
// to each enum).
template <typename E>
  requires std::is_enum_v<E>
constexpr Bytes FieldSize(E) { return 1; }
template <typename E>
  requires std::is_enum_v<E>
void WriteField(ByteWriter& w, E v) {
  static_assert(sizeof(E) == 1, "wire enums are one byte");
  w.WriteU8(static_cast<std::uint8_t>(v));
}
template <typename E>
  requires std::is_enum_v<E>
Status ReadField(ByteReader& r, E& v) {
  std::uint8_t raw = 0;
  COIC_RETURN_IF_ERROR(r.ReadU8(raw));
  if (!InWireRange(static_cast<E>(raw))) {
    return Status(StatusCode::kDataLoss, "enum value out of range");
  }
  v = static_cast<E>(raw);
  return Status::Ok();
}

// bool: one byte, 0 or 1.
constexpr Bytes FieldSize(bool) { return 1; }
inline void WriteField(ByteWriter& w, bool v) { w.WriteU8(v ? 1 : 0); }
inline Status ReadField(ByteReader& r, bool& v) {
  std::uint8_t raw = 0;
  COIC_RETURN_IF_ERROR(r.ReadU8(raw));
  if (raw > 1) return Status(StatusCode::kDataLoss, "bad bool byte");
  v = raw == 1;
  return Status::Ok();
}

// Strings and blobs: u32 length + bytes. The owning forms copy; the
// borrowed forms point into the reader's buffer, and only a borrowed
// blob may be a gathered frame's tail (see ByteReader).
inline Bytes FieldSize(std::string_view s) { return 4 + s.size(); }
inline void WriteField(ByteWriter& w, std::string_view s) { w.WriteString(s); }
inline Status ReadField(ByteReader& r, std::string& s) {
  return r.ReadString(s);
}
inline Status ReadField(ByteReader& r, std::string_view& s) {
  return r.ReadStringView(s);
}

inline Bytes FieldSize(std::span<const std::uint8_t> b) { return 4 + b.size(); }
inline void WriteField(ByteWriter& w, std::span<const std::uint8_t> b) {
  w.WriteBlob(b);
}
inline Status ReadField(ByteReader& r, ByteVec& b) { return r.ReadBlob(b); }
inline Status ReadField(ByteReader& r, std::span<const std::uint8_t>& b) {
  return r.ReadBlobView(b);
}

// Packed vectors: u32 count + elements.
inline Bytes FieldSize(std::span<const float> v) { return 4 + 4 * v.size(); }
inline void WriteField(ByteWriter& w, std::span<const float> v) {
  w.WriteF32Vector(v);
}
inline Status ReadField(ByteReader& r, std::vector<float>& v) {
  return r.ReadF32Vector(v);
}
inline Bytes FieldSize(std::span<const std::uint64_t> v) {
  return 4 + 8 * v.size();
}
inline void WriteField(ByteWriter& w, std::span<const std::uint64_t> v) {
  w.WriteU64Vector(v);
}
inline Status ReadField(ByteReader& r, std::vector<std::uint64_t>& v) {
  return r.ReadU64Vector(v);
}

// The cache key keeps its own codec.
inline Bytes FieldSize(const FeatureDescriptor& d) { return d.WireSize(); }
inline void WriteField(ByteWriter& w, const FeatureDescriptor& d) {
  d.Encode(w);
}
inline Status ReadField(ByteReader& r, FeatureDescriptor& d) {
  auto decoded = FeatureDescriptor::Decode(r);
  if (!decoded.ok()) return decoded.status();
  d = std::move(decoded).value();
  return Status::Ok();
}

// Composites: fixed arrays, the member hint, and nested described
// structs (declared first: they recurse into one another).
template <typename T, std::size_t N>
Bytes FieldSize(const std::array<T, N>& a);
template <typename T, std::size_t N>
void WriteField(ByteWriter& w, const std::array<T, N>& a);
template <typename T, std::size_t N>
Status ReadField(ByteReader& r, std::array<T, N>& a);
template <Described M>
Bytes FieldSize(const M& m);
template <Described M>
void WriteField(ByteWriter& w, const M& m);
template <Described M>
Status ReadField(ByteReader& r, M& m);

template <typename T, std::size_t N>
Bytes FieldSize(const std::array<T, N>& a) {
  Bytes size = 0;
  for (const T& x : a) size += FieldSize(x);
  return size;
}
template <typename T, std::size_t N>
void WriteField(ByteWriter& w, const std::array<T, N>& a) {
  for (const T& x : a) WriteField(w, x);
}
template <typename T, std::size_t N>
Status ReadField(ByteReader& r, std::array<T, N>& a) {
  for (T& x : a) COIC_RETURN_IF_ERROR(ReadField(r, x));
  return Status::Ok();
}

template <typename E, typename K>
Bytes FieldSize(const MemberHints<E, K>& h) {
  return 4 + h.edges.size() * (4 + 8);
}
template <typename E, typename K>
void WriteField(ByteWriter& w, const MemberHints<E, K>& h) {
  COIC_CHECK_MSG(h.edges.size() == h.keys.size(),
                 "member_edges and member_keys differ in length");
  w.WriteU32(static_cast<std::uint32_t>(h.edges.size()));
  for (std::size_t i = 0; i < h.edges.size(); ++i) {
    w.WriteU32(h.edges[i]);
    w.WriteU64(h.keys[i]);
  }
}
template <typename E, typename K>
Status ReadField(ByteReader& r, MemberHints<E, K>& h) {
  std::uint32_t members = 0;
  COIC_RETURN_IF_ERROR(r.ReadU32(members));
  // 12 bytes per member; bound by remaining input before reserving.
  if (members > r.remaining() / 12) {
    return Status(StatusCode::kDataLoss, "digest member list truncated");
  }
  h.edges.resize(members);
  h.keys.resize(members);
  for (std::uint32_t i = 0; i < members; ++i) {
    COIC_RETURN_IF_ERROR(r.ReadU32(h.edges[i]));
    COIC_RETURN_IF_ERROR(r.ReadU64(h.keys[i]));
  }
  return Status::Ok();
}

template <Described M>
Bytes FieldSize(const M& m) {
  return Schema<M>::Fields(
      m, [](const auto&... f) { return (Bytes{0} + ... + FieldSize(f)); });
}
template <Described M>
void WriteField(ByteWriter& w, const M& m) {
  Schema<M>::Fields(m, [&w](const auto&... f) { (WriteField(w, f), ...); });
}
template <Described M>
Status ReadField(ByteReader& r, M& m) {
  Status status;
  // Stops at the first field that fails; only a failure is stored.
  const auto read = [&r, &status](auto& field) {
    Status s = ReadField(r, field);
    if (s.ok()) return true;
    status = std::move(s);
    return false;
  };
  Schema<M>::Fields(m, [&read](auto&&... f) { (void)(read(f) && ...); });
  if constexpr (requires { Schema<M>::Check(m); }) {
    if (status.ok()) return Schema<M>::Check(m);
  }
  return status;
}

/// Copies one borrowed view field into its owning counterpart.
template <typename T, typename V>
void CopyOut(T& to, const V& from) {
  if constexpr (std::is_assignable_v<T&, const V&>) {
    to = from;
  } else {
    to.assign(from.begin(), from.end());
  }
}

/// An owning message whose decode goes through a borrowed twin.
template <typename M>
concept DecodesThroughView =
    requires { typename Schema<M>::View; } &&
    !std::same_as<M, typename Schema<M>::View>;

}  // namespace codec

/// Encoded payload size of `m` in bytes.
template <Described M>
[[nodiscard]] Bytes WireSize(const M& m) {
  return codec::FieldSize(m);
}

/// Appends `m`'s payload encoding (no envelope) to `w`.
template <Described M>
void EncodePayload(ByteWriter& w, const M& m) {
  codec::WriteField(w, m);
}

/// `m`'s payload encoding in a buffer of exactly its size.
template <Described M>
[[nodiscard]] ByteVec EncodePayload(const M& m) {
  ByteWriter w(WireSize(m));
  EncodePayload(w, m);
  return w.TakeBytes();
}

/// Decodes one M from `r`: every field bounds-checked, then the schema's
/// cross-field check. View types borrow from the reader's buffer.
template <Described M>
Result<M> DecodePayload(ByteReader& r) {
  if constexpr (codec::DecodesThroughView<M>) {
    const auto view = DecodePayload<typename Schema<M>::View>(r);
    if (!view.ok()) return view.status();
    M m;
    Schema<M>::Fields(m, [&view](auto&... to) {
      Schema<M>::Fields(view.value(), [&to...](const auto&... from) {
        (codec::CopyOut(to, from), ...);
      });
    });
    return m;
  } else {
    M m;
    COIC_RETURN_IF_ERROR(codec::ReadField(r, m));
    return m;
  }
}

}  // namespace coic::proto
