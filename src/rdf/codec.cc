#include "rdf/codec.h"

namespace rdfdb::rdf::codec {

std::vector<uint32_t> PostingView::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(count_);
  ForEach([&](uint32_t value) {
    out.push_back(value);
    return true;
  });
  return out;
}

std::string FrontCodedPack::Get(uint32_t idx) const {
  std::string out;
  AppendTo(idx, &out);
  return out;
}

void FrontCodedPack::AppendTo(uint32_t idx, std::string* out) const {
  const uint32_t block = idx / kBlockSize;
  const uint32_t within = idx % kBlockSize;
  const uint8_t* p = bytes_.data() + block_offsets_[block];
  uint32_t head_len;
  p = GetVarint32(p, &head_len);
  const char* head = reinterpret_cast<const char*>(p);
  p += head_len;
  // Rebuild members 1..within in place at the end of `out`: each member
  // keeps `shared` bytes of its predecessor and appends its suffix, so
  // the running string never leaves the output buffer.
  const size_t base = out->size();
  out->append(head, head_len);
  for (uint32_t i = 1; i <= within; ++i) {
    uint32_t shared, suffix_len;
    p = GetVarint32(p, &shared);
    p = GetVarint32(p, &suffix_len);
    out->resize(base + shared);
    out->append(reinterpret_cast<const char*>(p), suffix_len);
    p += suffix_len;
  }
}

uint32_t FrontCodedPackBuilder::Add(std::string_view s) {
  const uint32_t idx = pack_.count_;
  if ((idx % FrontCodedPack::kBlockSize) == 0) {
    pack_.block_offsets_.push_back(static_cast<uint32_t>(pack_.bytes_.size()));
    PutVarint32(&pack_.bytes_, static_cast<uint32_t>(s.size()));
    pack_.bytes_.insert(pack_.bytes_.end(), s.begin(), s.end());
  } else {
    size_t shared = 0;
    const size_t limit = std::min(prev_.size(), s.size());
    while (shared < limit && prev_[shared] == s[shared]) ++shared;
    PutVarint32(&pack_.bytes_, static_cast<uint32_t>(shared));
    PutVarint32(&pack_.bytes_, static_cast<uint32_t>(s.size() - shared));
    pack_.bytes_.insert(pack_.bytes_.end(), s.begin() + shared, s.end());
  }
  prev_.assign(s.data(), s.size());
  ++pack_.count_;
  return idx;
}

FrontCodedPack FrontCodedPackBuilder::Build() {
  pack_.bytes_.shrink_to_fit();
  pack_.block_offsets_.shrink_to_fit();
  FrontCodedPack out = std::move(pack_);
  pack_ = FrontCodedPack();
  prev_.clear();
  return out;
}

}  // namespace rdfdb::rdf::codec
