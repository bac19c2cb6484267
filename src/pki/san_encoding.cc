#include "src/pki/san_encoding.h"

#include <algorithm>
#include <stdexcept>

#include "src/base/biguint.h"

namespace nope {

namespace {

// Hostname-safe base-37 alphabet.
constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789-";
constexpr size_t kBase = 37;

int AlphabetIndex(char c) {
  const char* p = std::char_traits<char>::find(kAlphabet, kBase, c);
  if (p == nullptr) {
    return -1;
  }
  return static_cast<int>(p - kAlphabet);
}

char Checksum(const std::string& payload_and_meta) {
  uint32_t acc = 0;
  for (char c : payload_and_meta) {
    acc = (acc * 31 + static_cast<uint8_t>(c)) % kBase;
  }
  return kAlphabet[acc];
}

}  // namespace

std::vector<std::string> EncodeProofSans(const Bytes& proof, const DnsName& domain) {
  if (proof.size() != kSanProofBytes) {
    throw std::invalid_argument("NOPE proof must be 128 bytes");
  }
  // 197 base-37 digits cover 2^1024 (37^197 > 2^1026).
  BigUInt value = BigUInt::FromBytes(proof);
  std::string payload(kSanPayloadChars, kAlphabet[0]);
  for (size_t i = 0; i < kSanPayloadChars; ++i) {
    auto dm = value.DivMod(BigUInt(kBase));
    payload[kSanPayloadChars - 1 - i] = kAlphabet[dm.remainder.LowU64()];
    value = dm.quotient;
  }
  if (!value.IsZero()) {
    throw std::logic_error("proof does not fit in 197 base-37 characters");
  }

  std::string full;
  full.push_back(kSanVersion);
  full.push_back(kAlphabet[0]);  // metadata (reserved)
  full += payload;
  full.push_back(Checksum(full));
  // 200 characters -> four 50-character labels.
  std::vector<std::string> labels;
  for (size_t i = 0; i < full.size(); i += kSanLabelChars) {
    labels.push_back(full.substr(i, kSanLabelChars));
  }

  // Fit as many labels as possible per SAN under the 253-byte hostname cap.
  std::string domain_suffix = domain.ToString();
  domain_suffix.pop_back();  // drop trailing dot
  std::vector<std::string> sans;
  size_t label_idx = 0;
  size_t san_idx = 0;
  while (label_idx < labels.size()) {
    std::string san = "n" + std::to_string(san_idx) + "pe";
    while (label_idx < labels.size() &&
           san.size() + 1 + labels[label_idx].size() + 1 + domain_suffix.size() <= 253) {
      san += "." + labels[label_idx];
      ++label_idx;
    }
    san += "." + domain_suffix;
    sans.push_back(san);
    ++san_idx;
  }
  return sans;
}

Result<Bytes> DecodeProofFromSans(const std::vector<std::string>& sans,
                                  const DnsName& domain) {
  std::string domain_suffix = domain.ToString();
  domain_suffix.pop_back();

  // A 200-char encoding fits in four labels, so even a minimal domain needs
  // at most four n<i>pe SANs; anything beyond that is malformed and capping
  // the scan keeps the work linear in the SAN count.
  constexpr size_t kMaxProofSans = 8;

  // Collect labels from n0pe., n1pe., ... SANs in order.
  std::string full;
  bool any_found = false;
  for (size_t san_idx = 0; san_idx < kMaxProofSans; ++san_idx) {
    std::string prefix = "n" + std::to_string(san_idx) + "pe.";
    bool found = false;
    for (const std::string& san : sans) {
      if (san.rfind(prefix, 0) != 0) {
        continue;
      }
      if (san.size() < domain_suffix.size() + 1 ||
          san.compare(san.size() - domain_suffix.size(), domain_suffix.size(),
                      domain_suffix) != 0) {
        continue;
      }
      std::string middle =
          san.substr(prefix.size(), san.size() - prefix.size() - domain_suffix.size() - 1);
      size_t start = 0;
      while (start <= middle.size()) {
        size_t dot = middle.find('.', start);
        std::string label =
            dot == std::string::npos ? middle.substr(start) : middle.substr(start, dot - start);
        if (label.empty()) {
          return Error(ErrorCode::kBadEncoding, "empty label in NOPE SAN '" + san + "'");
        }
        if (label.size() > kSanLabelChars) {
          return Error(ErrorCode::kBadLength,
                       "NOPE SAN label over " + std::to_string(kSanLabelChars) + " chars");
        }
        for (char c : label) {
          if (AlphabetIndex(c) < 0) {
            return Error(ErrorCode::kBadEncoding,
                         std::string("character '") + c + "' outside the base-37 alphabet");
          }
        }
        full += label;
        if (full.size() > kSanPayloadChars + 3) {
          return Error(ErrorCode::kBadLength, "NOPE SAN payload over 200 characters");
        }
        if (dot == std::string::npos) {
          break;
        }
        start = dot + 1;
      }
      found = true;
      any_found = true;
      break;
    }
    if (!found) {
      break;
    }
  }
  if (!any_found) {
    return Error(ErrorCode::kMissing, "no NOPE SANs for " + domain.ToString());
  }
  if (full.size() != kSanPayloadChars + 3) {
    return Error(ErrorCode::kBadLength, "NOPE SAN payload is " + std::to_string(full.size()) +
                                            " characters, want 200");
  }
  if (full[0] != kSanVersion) {
    return Error(ErrorCode::kBadEncoding, "unknown NOPE SAN version character");
  }
  if (Checksum(full.substr(0, full.size() - 1)) != full.back()) {
    return Error(ErrorCode::kBadChecksum, "NOPE SAN checksum mismatch");
  }
  BigUInt value;
  for (size_t i = 2; i < full.size() - 1; ++i) {
    value = value * BigUInt(kBase) +
            BigUInt(static_cast<uint64_t>(AlphabetIndex(full[i])));
  }
  if (value.BitLength() > 8 * kSanProofBytes) {
    return Error(ErrorCode::kOutOfRange, "decoded proof exceeds 128 bytes");
  }
  return value.ToBytes(kSanProofBytes);
}

}  // namespace nope
