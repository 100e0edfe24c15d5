#include "net/loss_adversary.hpp"

namespace ccd {

void DeliveryMatrix::reset(std::size_t n, bool value) {
  n_ = n;
  words_ = mask_words(n);
  bits_.assign(n * words_, value ? ~std::uint64_t{0} : 0);
  if (value) {
    // Keep sender positions >= n clear in every row's last word.
    for (std::size_t i = 0; i < n; ++i) {
      bits_[i * words_ + words_ - 1] = last_word_mask(n);
    }
  }
}

void DeliveryMatrix::deliver_all(const ProcessSet& senders) {
  for (std::size_t i = 0; i < n_; ++i) {
    std::uint64_t* r = &bits_[i * words_];
    for (std::size_t w = 0; w < words_; ++w) r[w] |= senders.data()[w];
  }
}

}  // namespace ccd
