// Fixture: INV-C must fire — a serve-layer function fulfills a request
// promise without any accounting call in the same function.
#include <future>
#include <utility>

#include "serve/status.hpp"

namespace smore {

void fulfill_without_accounting(std::promise<ServeResult>& p) {
  ServeResult r;
  r.status = ServeStatus::kOk;
  p.set_value(std::move(r));
}

}  // namespace smore
