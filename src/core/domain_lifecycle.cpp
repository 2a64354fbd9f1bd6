#include "core/domain_lifecycle.hpp"

#include <stdexcept>

namespace smore {

LifecycleRoundStats DomainLifecycle::run_round(
    SmoreModel& model, HvView samples, std::span<const int> pseudo_labels,
    std::span<const std::pair<int, double>> usage) {
  if (!model.trained()) {
    throw std::logic_error("DomainLifecycle::run_round: untrained model");
  }
  if (samples.rows != pseudo_labels.size()) {
    throw std::invalid_argument(
        "DomainLifecycle::run_round: samples/labels size mismatch");
  }
  LifecycleRoundStats stats;
  const DomainDescriptorBank& bank = model.descriptors();

  // 1. Clock tick + usage credit + decay. Credit BEFORE decay so this
  // round's traffic is dampened once by the next round, not immediately.
  model.advance_round();
  for (const auto& [id, amount] : usage) model.note_usage(id, amount);
  model.decay_usage(config_.usage_decay);

  // 2-3. Cluster the round and route each cluster: merge into the most
  // similar existing descriptor when close enough, else enroll fresh.
  if (samples.rows > 0) {
    const Clustering clusters = cluster_rows(samples, config_.cluster);
    stats.clusters = clusters.k;
    // Route every cluster against the PRE-ROUND bank state: decisions are
    // made per cluster before any absorption, so the order clusters are
    // processed in cannot flip a merge into an enroll (a freshly enrolled
    // cluster never captures its round-mates).
    std::vector<int> target_ids(clusters.k);
    std::vector<bool> is_merge(clusters.k, false);
    int fresh_id = bank.next_domain_id();
    const std::vector<double> sims =
        bank.similarities_batch(clusters.centroids.view());
    const std::size_t k_bank = bank.size();
    // Protected positions are not merge targets: they are the operator's
    // ground-truth-trained source domains, and bundling pseudo-labeled
    // traffic into them would poison their class banks. Recurring drift
    // merges into the pseudo-domain IT enrolled, never into a source.
    const std::size_t first_target =
        std::min(config_.protected_domains, k_bank);
    for (std::size_t c = 0; c < clusters.k; ++c) {
      const double* row = sims.data() + c * k_bank;
      std::size_t best = k_bank;
      for (std::size_t k = first_target; k < k_bank; ++k) {
        if (best == k_bank || row[k] > row[best]) best = k;
      }
      if (best < k_bank && row[best] >= config_.merge_threshold) {
        target_ids[c] = bank.domain_id(best);
        is_merge[c] = true;
      } else {
        target_ids[c] = fresh_id++;
      }
    }
    for (std::size_t c = 0; c < clusters.k; ++c) {
      if (is_merge[c]) {
        ++stats.merged;
        stats.merged_ids.push_back(target_ids[c]);
      } else {
        ++stats.enrolled_new;
        stats.enrolled_ids.push_back(target_ids[c]);
      }
    }
    // Absorb: labeled update into the domain model + descriptor bundle, the
    // whole round as one block.
    std::vector<int> row_ids(samples.rows);
    for (std::size_t i = 0; i < samples.rows; ++i) {
      row_ids[i] = target_ids[clusters.assignment[i]];
    }
    model.absorb_labeled(samples, pseudo_labels, row_ids);
    stats.absorbed = samples.rows;
    // Credit the round's own domains so a just-touched domain is not the
    // immediate eviction victim, and stamp merge counters.
    for (std::size_t c = 0; c < clusters.k; ++c) {
      model.note_usage(target_ids[c], static_cast<double>(clusters.sizes[c]));
      if (is_merge[c]) {
        const auto& ids = bank.domain_ids();
        for (std::size_t k = 0; k < ids.size(); ++k) {
          if (ids[k] == target_ids[c]) {
            model.note_merge(k);
            break;
          }
        }
      }
    }
  }

  // 4. Evict down to the cap: lowest usage first, then least recently used,
  // then oldest enrollment — never a protected (source) position, never the
  // last domain. Victims rank on metadata alone and removing a domain never
  // changes a survivor's metadata, so they are all chosen first (in the
  // order a one-at-a-time loop would take them) and dropped in one batch.
  const std::size_t k_bank = bank.size();
  std::vector<bool> chosen(k_bank, false);
  std::vector<std::size_t> victims;
  while (k_bank - victims.size() > config_.max_domains &&
         k_bank - victims.size() > 1) {
    std::size_t victim = k_bank;
    for (std::size_t k = config_.protected_domains; k < k_bank; ++k) {
      if (chosen[k]) continue;
      if (victim == k_bank) {
        victim = k;
        continue;
      }
      const DomainMeta& a = bank.meta(k);
      const DomainMeta& b = bank.meta(victim);
      if (a.usage != b.usage ? a.usage < b.usage
          : a.last_used_round != b.last_used_round
              ? a.last_used_round < b.last_used_round
              : a.enrolled_round < b.enrolled_round) {
        victim = k;
      }
    }
    if (victim >= k_bank) break;  // everything is protected: cap unreachable
    chosen[victim] = true;
    victims.push_back(victim);
    stats.evicted_ids.push_back(bank.domain_id(victim));
  }
  if (!victims.empty()) model.remove_domains(victims);
  stats.evicted = victims.size();

  return stats;
}

}  // namespace smore
