#include "storage/sort.h"

#include <algorithm>
#include <numeric>

namespace vertexica {

std::vector<int64_t> SortIndices(const Table& table,
                                 const std::vector<SortKey>& keys) {
  std::vector<int64_t> indices(static_cast<size_t>(table.num_rows()));
  std::iota(indices.begin(), indices.end(), 0);

  // Fast path: single ascending int64 key with no nulls (the vertex-batching
  // case: sort partition on vertex id).
  if (keys.size() == 1 && keys[0].ascending &&
      table.column(keys[0].column).type() == DataType::kInt64 &&
      table.column(keys[0].column).null_count() == 0) {
    // RLE fast path: stable-sort the runs and expand each run's row range.
    // Equal-valued runs keep their original order and every run expands in
    // ascending row order, which is exactly the stable row sort — without
    // decoding the key column. O(runs log runs + n) instead of O(n log n).
    if (const auto* runs = table.column(keys[0].column).rle_runs()) {
      struct RunRange {
        int64_t value;
        int64_t start;
        int64_t length;
      };
      std::vector<RunRange> ranges;
      ranges.reserve(runs->size());
      int64_t start = 0;
      for (const RleRun& run : *runs) {
        ranges.push_back(RunRange{run.value, start, run.length});
        start += run.length;
      }
      std::stable_sort(ranges.begin(), ranges.end(),
                       [](const RunRange& a, const RunRange& b) {
                         return a.value < b.value;
                       });
      size_t out = 0;
      for (const RunRange& r : ranges) {
        for (int64_t i = 0; i < r.length; ++i) {
          indices[out++] = r.start + i;
        }
      }
      return indices;
    }
  }
  StableSortRows(table, keys, &indices);
  return indices;
}

void StableSortRows(const Table& table, const std::vector<SortKey>& keys,
                    std::vector<int64_t>* rows) {
  if (keys.size() == 1 && keys[0].ascending &&
      table.column(keys[0].column).type() == DataType::kInt64 &&
      table.column(keys[0].column).null_count() == 0) {
    const auto& v = table.column(keys[0].column).ints();
    std::stable_sort(rows->begin(), rows->end(), [&v](int64_t a, int64_t b) {
      return v[static_cast<size_t>(a)] < v[static_cast<size_t>(b)];
    });
    return;
  }
  std::stable_sort(rows->begin(), rows->end(),
                   [&table, &keys](int64_t a, int64_t b) {
                     for (const SortKey& k : keys) {
                       const Column& col = table.column(k.column);
                       int cmp = col.CompareRows(a, col, b);
                       if (!k.ascending) cmp = -cmp;
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
}

Table SortTable(const Table& table, const std::vector<SortKey>& keys) {
  Table out = table.Take(SortIndices(table, keys));
  out.SetSortOrder(keys);  // the one producer that guarantees it by doing it
  return out;
}

}  // namespace vertexica
