#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/random.h"
#include "core/training_data_gen.h"
#include "obs/metrics.h"
#include "olap/cost.h"
#include "olap/dimension.h"
#include "olap/region.h"
#include "table/table.h"

namespace bellwether::core {
namespace {

using olap::HierarchicalDimension;
using olap::IntervalDimension;
using olap::NodeId;
using table::AggFn;
using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

// A tiny handcrafted star schema exercising all three feature-query forms.
struct TinyDb {
  Table fact{Schema({{"Time", DataType::kInt64},
                     {"Location", DataType::kInt64},
                     {"ItemID", DataType::kInt64},
                     {"AdNo", DataType::kInt64},
                     {"Profit", DataType::kDouble}})};
  Table items{Schema({{"ItemID", DataType::kInt64},
                      {"RDExpense", DataType::kDouble}})};
  Table ads{Schema(
      {{"AdNo", DataType::kInt64}, {"AdSize", DataType::kDouble}})};
  std::unique_ptr<olap::RegionSpace> space;
  std::unique_ptr<olap::CostModel> cost;
  NodeId wi = 0, md = 0;

  TinyDb() {
    HierarchicalDimension loc("Location", "All");
    const NodeId us = loc.AddNode("US", loc.root());
    wi = loc.AddNode("WI", us);
    md = loc.AddNode("MD", us);
    std::vector<olap::Dimension> dims;
    dims.emplace_back(IntervalDimension("Time", 2));
    dims.emplace_back(loc);
    space = std::make_unique<olap::RegionSpace>(std::move(dims));
    std::vector<double> cell_costs(space->NumFinestCells(), 1.0);
    cost = std::make_unique<olap::CostModel>(
        std::move(olap::CostModel::Create(space.get(), cell_costs)).value());

    items.AppendRow({Value(int64_t{1}), Value(10.0)});
    items.AppendRow({Value(int64_t{2}), Value(20.0)});
    items.AppendRow({Value(int64_t{3}), Value(30.0)});
    ads.AppendRow({Value(int64_t{100}), Value(1.0)});
    ads.AppendRow({Value(int64_t{101}), Value(4.0)});
    ads.AppendRow({Value(int64_t{102}), Value(9.0)});

    AddOrder(1, wi, 1, 100, 10.0);
    AddOrder(1, wi, 1, 101, 20.0);   // item 1, week 1, WI, two ads
    AddOrder(2, wi, 1, 100, 5.0);    // same ad again in week 2
    AddOrder(1, md, 1, 102, 40.0);
    AddOrder(1, md, 2, 100, 7.0);
    AddOrder(2, md, 2, 101, 9.0);
    AddOrder(2, wi, 3, 102, -2.0);   // item 3 only appears in week 2 WI
  }

  void AddOrder(int64_t t, NodeId loc, int64_t item, int64_t ad, double p) {
    fact.AppendRow({Value(t), Value(static_cast<int64_t>(loc)), Value(item),
                    Value(ad), Value(p)});
  }

  BellwetherSpec MakeSpec(double budget, double min_coverage) const {
    BellwetherSpec spec;
    spec.space = space.get();
    spec.fact = &fact;
    spec.item_id_column = "ItemID";
    spec.dimension_columns = {"Time", "Location"};
    spec.references["ads"] = ReferenceTable{&ads, "AdNo"};
    spec.item_table = &items;
    spec.item_table_id_column = "ItemID";
    spec.item_feature_columns = {"RDExpense"};
    spec.regional_features = {
        {FeatureQuery::Kind::kFactMeasure, AggFn::kSum, "RegionalProfit",
         "Profit", "", ""},
        {FeatureQuery::Kind::kReferenceMeasure, AggFn::kMax, "RegionalMaxAd",
         "AdSize", "ads", "AdNo"},
        {FeatureQuery::Kind::kFkDistinctMeasure, AggFn::kSum,
         "RegionalTotalAdSize", "AdSize", "ads", "AdNo"},
    };
    spec.target_fn = AggFn::kSum;
    spec.target_column = "Profit";
    spec.cost = cost.get();
    spec.budget = budget;
    spec.min_coverage = min_coverage;
    return spec;
  }
};

TEST(TrainingDataGenTest, TargetsAreWholeSpaceAggregates) {
  TinyDb db;
  auto data = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.0));
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->profile.targets.size(), 3u);
  EXPECT_NEAR(data->profile.targets[0], 10 + 20 + 5 + 40, 1e-9);  // item 1
  EXPECT_NEAR(data->profile.targets[1], 7 + 9, 1e-9);             // item 2
  EXPECT_NEAR(data->profile.targets[2], -2, 1e-9);                // item 3
}

TEST(TrainingDataGenTest, FeatureNamesLayout) {
  TinyDb db;
  const auto names = FeatureNames(db.MakeSpec(100.0, 0.0));
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "(intercept)");
  EXPECT_EQ(names[1], "RDExpense");
  EXPECT_EQ(names[2], "RegionalProfit");
  EXPECT_EQ(names[4], "RegionalTotalAdSize");
}

TEST(TrainingDataGenTest, RegionalFeatureValues) {
  TinyDb db;
  auto data = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.0));
  ASSERT_TRUE(data.ok());
  // Region [1-2, WI]: item 1 has rows (10, ad100), (20, ad101), (5, ad100).
  const olap::RegionId r = *db.space->FindRegion({"1-2", "WI"});
  const int64_t idx = data->FindSet(r);
  ASSERT_GE(idx, 0);
  const auto& set = (*data->memory_sets())[idx];
  // Items present: 1 and 3.
  ASSERT_EQ(set.items.size(), 2u);
  EXPECT_EQ(set.items[0], 0);
  EXPECT_EQ(set.items[1], 2);
  const double* row = set.row(0);
  EXPECT_DOUBLE_EQ(row[0], 1.0);    // intercept
  EXPECT_DOUBLE_EQ(row[1], 10.0);   // RDExpense
  EXPECT_DOUBLE_EQ(row[2], 35.0);   // regional profit 10+20+5
  EXPECT_DOUBLE_EQ(row[3], 4.0);    // max ad size among {1, 4, 1}
  // Distinct ads {100, 101} -> sizes 1 + 4 (ad 100 counted once).
  EXPECT_DOUBLE_EQ(row[4], 5.0);
  EXPECT_DOUBLE_EQ(set.targets[0], 75.0);
}

TEST(TrainingDataGenTest, CoverageCountsItemsWithData) {
  TinyDb db;
  auto data = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.0));
  ASSERT_TRUE(data.ok());
  // [1-1, WI]: only item 1 -> 1/3. [1-2, All]: all items -> 1.
  EXPECT_NEAR(
      data->profile.region_coverage[*db.space->FindRegion({"1-1", "WI"})],
      1.0 / 3.0, 1e-12);
  EXPECT_NEAR(
      data->profile.region_coverage[*db.space->FindRegion({"1-2", "All"})],
      1.0, 1e-12);
}

TEST(TrainingDataGenTest, BudgetAndCoveragePruneRegions) {
  TinyDb db;
  // Each finest cell costs 1; [1-2, All] costs 2*3=6.
  auto all = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.0));
  ASSERT_TRUE(all.ok());
  auto tight = GenerateTrainingDataInMemory(db.MakeSpec(2.0, 0.0));
  ASSERT_TRUE(tight.ok());
  EXPECT_LT(tight->memory_sets()->size(), all->memory_sets()->size());
  for (const auto& set : *tight->memory_sets()) {
    EXPECT_LE(all->profile.region_costs[set.region], 2.0);
  }
  auto covered = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.9));
  ASSERT_TRUE(covered.ok());
  for (const auto& set : *covered->memory_sets()) {
    EXPECT_GE(all->profile.region_coverage[set.region], 0.9);
  }
}

// The §4.2 rewrite equivalence: the single-pass CUBE path produces exactly
// the same training set as evaluating the original per-region queries with
// plain relational operators.
TEST(TrainingDataGenTest, CubePathMatchesNaiveQueriesEverywhere) {
  TinyDb db;
  const BellwetherSpec spec = db.MakeSpec(100.0, 0.0);
  auto data = GenerateTrainingDataInMemory(spec);
  ASSERT_TRUE(data.ok());
  ASSERT_GT(data->memory_sets()->size(), 0u);
  for (const auto& set : *data->memory_sets()) {
    auto naive = GenerateRegionTrainingSetNaive(spec, set.region);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    ASSERT_EQ(naive->items, set.items)
        << "region " << db.space->RegionLabel(set.region);
    ASSERT_EQ(naive->num_features, set.num_features);
    for (size_t i = 0; i < set.features.size(); ++i) {
      EXPECT_NEAR(naive->features[i], set.features[i], 1e-9)
          << "feature flat index " << i << " in region "
          << db.space->RegionLabel(set.region);
    }
    for (size_t i = 0; i < set.targets.size(); ++i) {
      EXPECT_NEAR(naive->targets[i], set.targets[i], 1e-9);
    }
  }
}

// A reference table of 130 keys, so a distinct-key bitmap spans three words
// and ids cross word boundaries. Keys include negatives and sit in shuffled
// row order; some measures are null, and some fact rows carry a null or an
// unknown foreign key.
struct WideKeyDb : TinyDb {
  static constexpr int64_t kNumKeys = 130;
  Table wide{Schema({{"Key", DataType::kInt64}, {"Size", DataType::kDouble}})};
  // Fact rows: (time, location, item, key or null, profit).
  struct Row {
    int64_t t, loc, item;
    std::optional<int64_t> key;
  };
  std::vector<Row> rows;

  WideKeyDb() {
    fact = Table(Schema({{"Time", DataType::kInt64},
                         {"Location", DataType::kInt64},
                         {"ItemID", DataType::kInt64},
                         {"Key", DataType::kInt64},
                         {"Profit", DataType::kDouble}}));
    Rng rng(130);
    std::vector<int64_t> keys;
    for (int64_t k = 0; k < kNumKeys; ++k) keys.push_back(3 * k - 200);
    rng.Shuffle(&keys);
    for (size_t r = 0; r < keys.size(); ++r) {
      wide.AppendRow({Value(keys[r]), r % 9 == 4
                                          ? Value::Null()
                                          : Value(rng.NextDouble(0.0, 10.0))});
    }
    const NodeId locs[] = {wi, md};
    for (int i = 0; i < 600; ++i) {
      Row row{1 + static_cast<int64_t>(rng.NextUint64(2)),
              static_cast<int64_t>(locs[rng.NextUint64(2)]),
              1 + static_cast<int64_t>(rng.NextUint64(3)), std::nullopt};
      const uint64_t pick = rng.NextUint64(20);
      if (pick == 0) {
        row.key = 5000 + static_cast<int64_t>(rng.NextUint64(10));  // unknown
      } else if (pick != 1) {  // pick == 1 leaves the key null
        row.key = keys[rng.NextUint64(keys.size())];
      }
      rows.push_back(row);
      fact.AppendRow({Value(row.t), Value(row.loc), Value(row.item),
                      row.key ? Value(*row.key) : Value::Null(),
                      Value(rng.NextDouble(-5.0, 5.0))});
    }
  }

  BellwetherSpec MakeWideSpec() const {
    BellwetherSpec spec = MakeSpec(100.0, 0.0);
    spec.references.clear();
    spec.references["wide"] = ReferenceTable{&wide, "Key"};
    spec.regional_features = {
        {FeatureQuery::Kind::kFkDistinctMeasure, AggFn::kSum, "DistinctSum",
         "Size", "wide", "Key"},
        {FeatureQuery::Kind::kFkDistinctMeasure, AggFn::kCount,
         "DistinctCount", "Size", "wide", "Key"},
        {FeatureQuery::Kind::kFkDistinctMeasure, AggFn::kMax, "DistinctMax",
         "Size", "wide", "Key"},
        {FeatureQuery::Kind::kReferenceMeasure, AggFn::kSum, "RowSum", "Size",
         "wide", "Key"},
    };
    return spec;
  }
};

TEST(TrainingDataGenTest, WideKeyDomainMatchesNaiveQueries) {
  WideKeyDb db;
  const BellwetherSpec spec = db.MakeWideSpec();
  auto data = GenerateTrainingDataInMemory(spec);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_EQ(data->memory_sets()->size(),
            static_cast<size_t>(db.space->NumRegions()));
  const auto& ids = db.wide.ColumnByName("Key");
  const auto& sizes = db.wide.ColumnByName("Size");
  std::map<int64_t, size_t> row_of_key;  // ascending keys
  for (size_t r = 0; r < db.wide.num_rows(); ++r) {
    row_of_key[ids.Int64At(r)] = r;
  }
  for (const auto& set : *data->memory_sets()) {
    SCOPED_TRACE("region " + db.space->RegionLabel(set.region));
    auto naive = GenerateRegionTrainingSetNaive(spec, set.region);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    ASSERT_EQ(naive->items, set.items);
    ASSERT_EQ(naive->num_features, set.num_features);
    for (size_t i = 0; i < set.features.size(); ++i) {
      EXPECT_NEAR(naive->features[i], set.features[i], 1e-9)
          << "feature flat index " << i;
    }
    // The distinct-key SUM adds the measures in ascending key order, bit
    // for bit.
    for (size_t e = 0; e < set.items.size(); ++e) {
      std::set<int64_t> keys;
      for (const auto& row : db.rows) {
        if (row.item != set.items[e] + 1 || !row.key ||
            !row_of_key.count(*row.key) ||
            !db.space->RegionContainsPoint(
                set.region, {static_cast<int32_t>(row.t),
                             static_cast<int32_t>(row.loc)})) {
          continue;
        }
        keys.insert(*row.key);
      }
      double sum = 0.0;
      for (int64_t key : keys) {
        const size_t r = row_of_key.at(key);
        if (!sizes.IsNull(r)) sum += sizes.NumericAt(r);
      }
      EXPECT_EQ(set.row(e)[2], sum) << "item " << set.items[e];
    }
  }
}

TEST(TrainingDataGenTest, GaugesReportBitmapWidthAndCubeBytes) {
  WideKeyDb db;
  ASSERT_TRUE(GenerateTrainingDataInMemory(db.MakeWideSpec()).ok());
  auto& metrics = obs::DefaultMetrics();
  EXPECT_EQ(metrics.GetGauge(obs::kMDatagenFkBitmapWords)->Value(), 3.0);
  // Per (region, item): the row-count cube and the RowSum cube hold one
  // 32-byte NumericAgg each, and the three FK-distinct cubes three words
  // each.
  const double cells = static_cast<double>(db.space->NumRegions()) * 3;
  EXPECT_EQ(metrics.GetGauge(obs::kMDatagenCubeCellBytes)->Value(),
            cells * (2 * 32 + 3 * 3 * 8));
  // A spec without FK-distinct features reads zero words.
  BellwetherSpec spec = db.MakeWideSpec();
  spec.regional_features.resize(1);
  spec.regional_features[0] = {FeatureQuery::Kind::kFactMeasure, AggFn::kSum,
                               "Profit", "Profit", "", ""};
  ASSERT_TRUE(GenerateTrainingDataInMemory(spec).ok());
  EXPECT_EQ(metrics.GetGauge(obs::kMDatagenFkBitmapWords)->Value(), 0.0);
  EXPECT_EQ(metrics.GetGauge(obs::kMDatagenCubeCellBytes)->Value(),
            cells * 2 * 32);
}

TEST(TrainingDataGenTest, CellSetTrainingSetMatchesRegionWhenEquivalent) {
  TinyDb db;
  const BellwetherSpec spec = db.MakeSpec(100.0, 0.0);
  // The cell set covering exactly [1-2, WI].
  const olap::RegionId r = *db.space->FindRegion({"1-2", "WI"});
  auto via_cells = GenerateCellSetTrainingSet(spec, db.space->FinestCellsIn(r));
  auto via_region = GenerateRegionTrainingSetNaive(spec, r);
  ASSERT_TRUE(via_cells.ok());
  ASSERT_TRUE(via_region.ok());
  EXPECT_EQ(via_cells->items, via_region->items);
  EXPECT_EQ(via_cells->features, via_region->features);
}

TEST(TrainingDataGenTest, ValidatesSpec) {
  TinyDb db;
  BellwetherSpec spec = db.MakeSpec(10.0, 0.0);
  spec.target_column = "Nope";
  EXPECT_FALSE(GenerateTrainingDataInMemory(spec).ok());
  spec = db.MakeSpec(10.0, 0.0);
  spec.dimension_columns = {"Time"};
  EXPECT_FALSE(GenerateTrainingDataInMemory(spec).ok());
  spec = db.MakeSpec(10.0, 0.0);
  spec.regional_features[1].reference = "unknown";
  EXPECT_FALSE(GenerateTrainingDataInMemory(spec).ok());
}

TEST(TrainingDataGenTest, MemorySourceRoundTrip) {
  TinyDb db;
  auto data = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.0));
  ASSERT_TRUE(data.ok());
  ASSERT_NE(data->source, nullptr);
  ASSERT_NE(data->memory_sets(), nullptr);
  EXPECT_EQ(data->source->num_region_sets(), data->memory_sets()->size());
  EXPECT_EQ(data->source->num_region_sets(),
            data->profile.feasible.regions.size());
  auto ids = data->source->RegionIds();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

// Generation streams into a caller-supplied sink; the sink observes every
// feasible region exactly once, in ascending RegionId order.
TEST(TrainingDataGenTest, SinkReceivesSetsInAscendingRegionOrder) {
  TinyDb db;
  storage::MemorySink sink;
  auto profile = GenerateTrainingData(db.MakeSpec(100.0, 0.0), &sink);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(sink.sets_appended(),
            static_cast<int64_t>(profile->feasible.regions.size()));
  auto source = sink.Finish();
  ASSERT_TRUE(source.ok());
  auto ids = (*source)->RegionIds();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(ids, profile->feasible.regions);
}

TEST(TrainingDataGenTest, NullSinkIsRejected) {
  TinyDb db;
  EXPECT_FALSE(GenerateTrainingData(db.MakeSpec(100.0, 0.0), nullptr).ok());
}

// FindSet binary-searches the ascending feasible-region list.
TEST(TrainingDataGenTest, FindSetMatchesLinearScan) {
  TinyDb db;
  auto data = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.0));
  ASSERT_TRUE(data.ok());
  const auto& regions = data->profile.feasible.regions;
  ASSERT_FALSE(regions.empty());
  for (olap::RegionId r = 0; r < db.space->NumRegions(); ++r) {
    int64_t expected = -1;
    for (size_t i = 0; i < regions.size(); ++i) {
      if (regions[i] == r) expected = static_cast<int64_t>(i);
    }
    EXPECT_EQ(data->FindSet(r), expected) << "region " << r;
  }
}

}  // namespace
}  // namespace bellwether::core
