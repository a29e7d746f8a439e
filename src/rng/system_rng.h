// OS entropy source (/dev/urandom), unbuffered: each fill() issues one
// read() (more only if the kernel returns short).
#pragma once

#include "rng/rng.h"

namespace dfky {

class SystemRng final : public Rng {
 public:
  SystemRng();
  ~SystemRng() override;

  SystemRng(const SystemRng&) = delete;
  SystemRng& operator=(const SystemRng&) = delete;

  void fill(std::span<byte> out) override;

 private:
  int fd_ = -1;
};

}  // namespace dfky
