// Base-37 encoding of a 128-byte NOPE proof into Subject Alternative Name
// hostname labels (paper §6 and Appendix D): 197 payload characters plus a
// version, a metadata character, and a checksum, split into four 50-character
// labels prefixed n0pe. / n1pe. ... and suffixed with the domain.
#ifndef SRC_PKI_SAN_ENCODING_H_
#define SRC_PKI_SAN_ENCODING_H_

#include <string>
#include <vector>

#include "src/dns/name.h"

namespace nope {

constexpr size_t kSanProofBytes = 128;
constexpr size_t kSanPayloadChars = 197;
constexpr size_t kSanLabelChars = 50;
constexpr char kSanVersion = 'a';  // version 0 in the base-37 alphabet

// Encodes the proof into one or more SAN strings for `domain`. Splits across
// multiple SANs (n0pe., n1pe., ...) when the domain is long.
std::vector<std::string> EncodeProofSans(const Bytes& proof, const DnsName& domain);

// Scans a certificate's SAN list for NOPE SANs matching `domain` and decodes
// the embedded proof. ErrorCode::kMissing means no NOPE SANs were present at
// all (the legacy-certificate case); every other code means NOPE SANs exist
// but are malformed: out-of-alphabet characters, over-length labels, wrong
// total length, bad version, or checksum mismatch.
Result<Bytes> DecodeProofFromSans(const std::vector<std::string>& sans,
                                  const DnsName& domain);

}  // namespace nope

#endif  // SRC_PKI_SAN_ENCODING_H_
