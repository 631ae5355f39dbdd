//! Dimension relation generators: CUSTOMER, SUPPLIER, PART, DATE.
//!
//! Per the paper, the long-text NAME and ADDRESS attributes of CUSTOMER
//! and SUPPLIER are never stored (SSB queries do not read them); every
//! other attribute is generated. Keys are dense and 1-based, so a key
//! `k` lives at row `k − 1` — the property the pre-join relies on.

use rand::rngs::StdRng;
use rand::Rng;

use crate::dict::bits_for;
use crate::error::DbError;
use crate::relation::Relation;
use crate::schema::{Attribute, Schema};
use crate::ssb::calendar;
use crate::ssb::names;

/// Bits used for the synthetic phone numbers (9 decimal digits).
pub const PHONE_BITS: usize = 30;

/// Deterministic "retail price" of a part (not an SSB attribute; used by
/// the lineorder generator for `lo_extendedprice = quantity × price`).
pub fn part_price(partkey: u64) -> u64 {
    1000 + (partkey.wrapping_mul(2_606_007) % 9000)
}

fn random_phone(rng: &mut StdRng) -> u64 {
    rng.gen_range(100_000_000u64..1_000_000_000)
}

/// Generate the CUSTOMER relation with `n` rows.
///
/// # Errors
///
/// Propagates dictionary/width failures (none for valid built-ins).
pub fn customer(n: usize, rng: &mut StdRng) -> Result<Relation, DbError> {
    let city_d = names::city_dict()?;
    let nation_d = names::nation_dict()?;
    let region_d = names::region_dict()?;
    let seg_d = names::list_dict(&names::MKTSEGMENTS)?;
    let schema = Schema::new(
        "customer",
        vec![
            Attribute::numeric("c_custkey", bits_for(n as u64)),
            Attribute::dict("c_city", city_d),
            Attribute::dict("c_nation", nation_d),
            Attribute::dict("c_region", region_d),
            Attribute::numeric("c_phone", PHONE_BITS),
            Attribute::dict("c_mktsegment", seg_d),
        ],
    )?;
    let mut rel = Relation::with_capacity(schema, n);
    for key in 1..=n as u64 {
        let nation = rng.gen_range(0..25u64);
        let digit = rng.gen_range(0..10u64);
        let city = nation * 10 + digit;
        let region = names::nation_region(nation as usize) as u64;
        let seg = rng.gen_range(0..names::MKTSEGMENTS.len() as u64);
        rel.push_row(&[key, city, nation, region, random_phone(rng), seg])?;
    }
    Ok(rel)
}

/// Generate the SUPPLIER relation with `n` rows.
///
/// # Errors
///
/// Propagates dictionary/width failures.
pub fn supplier(n: usize, rng: &mut StdRng) -> Result<Relation, DbError> {
    let city_d = names::city_dict()?;
    let nation_d = names::nation_dict()?;
    let region_d = names::region_dict()?;
    let schema = Schema::new(
        "supplier",
        vec![
            Attribute::numeric("s_suppkey", bits_for(n as u64)),
            Attribute::dict("s_city", city_d),
            Attribute::dict("s_nation", nation_d),
            Attribute::dict("s_region", region_d),
            Attribute::numeric("s_phone", PHONE_BITS),
        ],
    )?;
    let mut rel = Relation::with_capacity(schema, n);
    for key in 1..=n as u64 {
        let nation = rng.gen_range(0..25u64);
        let digit = rng.gen_range(0..10u64);
        let city = nation * 10 + digit;
        let region = names::nation_region(nation as usize) as u64;
        rel.push_row(&[key, city, nation, region, random_phone(rng)])?;
    }
    Ok(rel)
}

/// Generate the PART relation with `n` rows.
///
/// # Errors
///
/// Propagates dictionary/width failures.
pub fn part(n: usize, rng: &mut StdRng) -> Result<Relation, DbError> {
    let name_d = names::part_name_dict()?;
    let mfgr_d = names::mfgr_dict()?;
    let cat_d = names::category_dict()?;
    let brand_d = names::brand_dict()?;
    let color_d = names::list_dict(&names::COLORS)?;
    let type_d = names::part_type_dict()?;
    let cont_d = names::container_dict()?;
    let schema = Schema::new(
        "part",
        vec![
            Attribute::numeric("p_partkey", bits_for(n as u64)),
            Attribute::dict("p_name", name_d.clone()),
            Attribute::dict("p_mfgr", mfgr_d),
            Attribute::dict("p_category", cat_d),
            Attribute::dict("p_brand1", brand_d),
            Attribute::dict("p_color", color_d),
            Attribute::dict("p_type", type_d),
            Attribute::numeric("p_size", 6),
            Attribute::dict("p_container", cont_d),
        ],
    )?;
    let mut rel = Relation::with_capacity(schema, n);
    for key in 1..=n as u64 {
        let mfgr = rng.gen_range(0..5u64);
        let category = mfgr * 5 + rng.gen_range(0..5u64);
        let brand = category * 40 + rng.gen_range(0..40u64);
        let name = rng.gen_range(0..name_d.len() as u64);
        let color = rng.gen_range(0..names::COLORS.len() as u64);
        let ptype = rng.gen_range(0..150u64);
        let size = rng.gen_range(1..=50u64);
        let container = rng.gen_range(0..40u64);
        rel.push_row(&[key, name, mfgr, category, brand, color, ptype, size, container])?;
    }
    Ok(rel)
}

/// Generate the DATE relation (always 2,556 rows; `d_datekey` is the
/// 0-based day index, which is also the join key used by
/// `lo_orderdate`).
///
/// # Errors
///
/// Propagates dictionary/width failures.
pub fn date() -> Result<Relation, DbError> {
    let dow_d = names::list_dict(&names::WEEKDAYS)?;
    let month_d = names::list_dict(&names::MONTHS)?;
    let season_d = names::list_dict(&names::SEASONS)?;
    // chronological order: Jan1992, Feb1992, … Dec1998
    let mut ym_names = Vec::with_capacity(84);
    for y in calendar::FIRST_YEAR..=calendar::LAST_YEAR {
        for m in 0..12 {
            ym_names.push(format!("{}{}", names::MONTHS_SHORT[m], y));
        }
    }
    let ym_d = crate::dict::Dictionary::from_sorted(ym_names)?;

    let schema = Schema::new(
        "date",
        vec![
            Attribute::numeric("d_datekey", bits_for(calendar::TOTAL_DAYS as u64 - 1)),
            Attribute::dict("d_dayofweek", dow_d),
            Attribute::dict("d_month", month_d),
            Attribute::numeric("d_year", bits_for(calendar::LAST_YEAR)),
            Attribute::numeric("d_yearmonthnum", bits_for(199_812)),
            Attribute::dict("d_yearmonth", ym_d),
            Attribute::numeric("d_daynuminweek", 3),
            Attribute::numeric("d_daynuminmonth", 5),
            Attribute::numeric("d_daynuminyear", 9),
            Attribute::numeric("d_monthnuminyear", 4),
            Attribute::numeric("d_weeknuminyear", 6),
            Attribute::dict("d_sellingseason", season_d),
            Attribute::numeric("d_lastdayinweekfl", 1),
            Attribute::numeric("d_lastdayinmonthfl", 1),
            Attribute::numeric("d_holidayfl", 1),
            Attribute::numeric("d_weekdayfl", 1),
        ],
    )?;
    let mut rel = Relation::with_capacity(schema, calendar::TOTAL_DAYS);
    for day in 0..calendar::TOTAL_DAYS {
        let (y, m, dom) = calendar::day_to_ymd(day);
        let dow = calendar::day_of_week(day);
        let yearmonthnum = y * 100 + m;
        let ym_code = (y - calendar::FIRST_YEAR) * 12 + (m - 1);
        let last_in_week = (dow == 6) as u64;
        let last_in_month = (dom == calendar::days_in_month(y, m)) as u64;
        let holiday = calendar::is_holiday(m, dom) as u64;
        let weekday = (1..=5).contains(&dow) as u64;
        rel.push_row(&[
            day as u64,
            dow,
            m - 1,
            y,
            yearmonthnum,
            ym_code,
            dow + 1,
            dom,
            calendar::day_num_in_year(day),
            m,
            calendar::week_num_in_year(day),
            calendar::season_index(m),
            last_in_week,
            last_in_month,
            holiday,
            weekday,
        ])?;
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn customer_keys_dense_and_one_based() {
        let c = customer(100, &mut rng()).unwrap();
        assert_eq!(c.len(), 100);
        for row in 0..100 {
            assert_eq!(c.value_by_name(row, "c_custkey").unwrap(), row as u64 + 1);
        }
    }

    #[test]
    fn customer_city_consistent_with_nation_and_region() {
        let c = customer(500, &mut rng()).unwrap();
        let city_dict = c.schema().attr("c_city").unwrap().dictionary().unwrap().clone();
        let nation_dict = c.schema().attr("c_nation").unwrap().dictionary().unwrap().clone();
        for row in 0..c.len() {
            let city = c.value_by_name(row, "c_city").unwrap();
            let nation = c.value_by_name(row, "c_nation").unwrap();
            let region = c.value_by_name(row, "c_region").unwrap();
            assert_eq!(city / 10, nation, "city belongs to its nation");
            assert_eq!(names::nation_region(nation as usize) as u64, region);
            // city name starts with the truncated nation name
            let cn = city_dict.decode(city).unwrap();
            let nn = nation_dict.decode(nation).unwrap();
            assert!(cn
                .trim_end_matches(|c: char| c.is_ascii_digit())
                .trim_end()
                .starts_with(nn.chars().take(9).collect::<String>().trim_end()));
        }
    }

    #[test]
    fn part_brand_category_mfgr_hierarchy() {
        let p = part(1000, &mut rng()).unwrap();
        for row in 0..p.len() {
            let mfgr = p.value_by_name(row, "p_mfgr").unwrap();
            let cat = p.value_by_name(row, "p_category").unwrap();
            let brand = p.value_by_name(row, "p_brand1").unwrap();
            assert_eq!(cat / 5, mfgr);
            assert_eq!(brand / 40, cat);
        }
    }

    #[test]
    fn part_sizes_in_range() {
        let p = part(300, &mut rng()).unwrap();
        for row in 0..p.len() {
            let s = p.value_by_name(row, "p_size").unwrap();
            assert!((1..=50).contains(&s));
        }
    }

    #[test]
    fn date_dimension_has_2556_days_and_7_years() {
        let d = date().unwrap();
        assert_eq!(d.len(), 2556);
        let year = d.schema().index_of("d_year").unwrap();
        let years: std::collections::BTreeSet<u64> =
            (0..d.len()).map(|row| d.value(row, year)).collect();
        assert_eq!(years, (1992..=1998).collect());
    }

    #[test]
    fn date_yearmonth_consistent() {
        let d = date().unwrap();
        for row in [0usize, 100, 1000, 2555] {
            let y = d.value_by_name(row, "d_year").unwrap();
            let ymn = d.value_by_name(row, "d_yearmonthnum").unwrap();
            let m = d.value_by_name(row, "d_monthnuminyear").unwrap();
            assert_eq!(ymn, y * 100 + m);
            let ym = d.value_by_name(row, "d_yearmonth").unwrap();
            assert_eq!(ym, (y - 1992) * 12 + m - 1);
        }
    }

    #[test]
    fn dec1997_exists_for_q34() {
        let d = date().unwrap();
        let dict = d.schema().attr("d_yearmonth").unwrap().dictionary().unwrap().clone();
        let code = dict.encode("Dec1997").unwrap();
        assert_eq!(code, 5 * 12 + 11);
    }

    #[test]
    fn weekday_flags_consistent() {
        let d = date().unwrap();
        for row in 0..50 {
            let dow = d.value_by_name(row, "d_daynuminweek").unwrap(); // 1..=7, 1=Sunday
            let weekday = d.value_by_name(row, "d_weekdayfl").unwrap();
            assert_eq!(weekday == 1, (2..=6).contains(&dow), "row {row}");
        }
    }

    #[test]
    fn part_price_deterministic_and_bounded() {
        for k in [1u64, 7, 500_000] {
            let p = part_price(k);
            assert!((1000..10_000).contains(&p));
            assert_eq!(p, part_price(k));
        }
    }
}
