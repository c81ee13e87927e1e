//! A scan filter as a test of zone maps ([`tc_lsm::zone`]): the one rule by
//! which a filtered scan skips row blocks and amax row groups alike.
//!
//! [`ZonePredicate::of`] keeps the top-level `AND` conjuncts of the form
//! `col <op> numeric literal` whose scan path `col` is made of field steps
//! alone; every other conjunct counts as "may match". A zone column is named
//! by its whole field path, so `a.b < k` is judged by a zone over `a.b` (an
//! amax column) and never by one over a top-level field that happens to be
//! called `"a.b"`. [`ZonePredicate::may_match`] judges a
//! unit column by column: a column whose zone covers some of those
//! conjuncts may match iff some type class present in it satisfies *all* of
//! them. The numeric class is judged at its min and max with
//! [`Expr::eval`](crate::expr::Expr::eval)'s semantics (`Ne` fails only when
//! min = max = the literal); any other class by type order alone — a class
//! that sorts above the numbers satisfies only `>`, `>=` and `<>`, one below
//! only `<`, `<=` and `<>`. So `lo <= t AND t < hi` still skips a block that
//! holds the string `"changed_17"` at `t`.

use tc_adm::compare::{compare, type_rank};
use tc_adm::path::PathStep;
use tc_adm::{TypeTag, Value};
use tc_lsm::zone::{ColumnZone, Num, ZoneColumn};

use crate::batch::{split_conjuncts, typed_cmp_on};
use crate::expr::{cmp_holds, CmpOp};
use crate::plan::ScanSpec;

/// The conjuncts of a scan filter a zone can judge.
#[derive(Debug, Clone)]
pub struct ZonePredicate {
    /// `field path <op> literal`, the literal numeric.
    conjuncts: Vec<(ZoneColumn, CmpOp, Value)>,
}

impl ZonePredicate {
    /// `None` if the scan's filter has no conjunct a zone can judge: then
    /// every unit may match, and nothing need be asked.
    pub fn of(scan: &ScanSpec) -> Option<ZonePredicate> {
        let field = |step: &PathStep| match step {
            PathStep::Field(name) => Some(name.clone()),
            _ => None,
        };
        let conjuncts: Vec<_> = split_conjuncts(scan.filter.as_ref()?)
            .into_iter()
            .filter_map(|c| {
                let (col, op, k) = typed_cmp_on(c)?;
                let path: ZoneColumn =
                    scan.paths.get(col)?.iter().map(field).collect::<Option<_>>()?;
                (!path.is_empty() && k.type_tag().is_numeric()).then(|| (path, op, k.clone()))
            })
            .collect();
        (!conjuncts.is_empty()).then_some(ZonePredicate { conjuncts })
    }

    /// [`ZonePredicate::may_match`] as the test a scan takes
    /// ([`tc_lsm::ZoneFilter`]).
    pub fn as_filter(&self) -> impl Fn(&[ZoneColumn], &[ColumnZone]) -> bool + '_ {
        |columns, zone| self.may_match(columns, zone)
    }

    /// May a unit whose zone over `columns` is `zone` hold a row the filter
    /// keeps? `false` is a proof it holds none.
    pub fn may_match(&self, columns: &[ZoneColumn], zone: &[ColumnZone]) -> bool {
        columns.iter().zip(zone).all(|(path, zone)| {
            let conjuncts = self.conjuncts.iter().filter(|(f, _, _)| f == path);
            column_may_match(zone, conjuncts.map(|(_, op, k)| (*op, k)))
        })
    }
}

fn column_may_match<'k>(
    zone: &ColumnZone,
    conjuncts: impl Iterator<Item = (CmpOp, &'k Value)> + Clone,
) -> bool {
    let ColumnZone::Known { range, ranks } = zone else {
        return true;
    };
    if conjuncts.clone().next().is_none() {
        return true; // the filter says nothing of this column
    }
    let numbers = range.is_some_and(|(lo, hi)| {
        let (lo, hi) = (value(lo), value(hi));
        conjuncts.clone().all(|(op, k)| numbers_may_satisfy(op, &lo, &hi, k))
    });
    let numeric = type_rank(TypeTag::Int64);
    numbers
        || (0..u32::BITS as u8).filter(|r| ranks & (1 << r) != 0).any(|rank| {
            conjuncts.clone().all(|(op, _)| match op {
                CmpOp::Ne => true,
                CmpOp::Gt | CmpOp::Ge => rank > numeric,
                CmpOp::Lt | CmpOp::Le => rank < numeric,
                CmpOp::Eq => false,
            })
        })
}

fn value(n: Num) -> Value {
    match n {
        Num::Int(v) => Value::Int64(v),
        Num::Double(v) => Value::Double(v),
    }
}

/// Can a number between `lo` and `hi` (the order's min and max of the
/// numbers present) satisfy `<op> k`?
fn numbers_may_satisfy(op: CmpOp, lo: &Value, hi: &Value, k: &Value) -> bool {
    match op {
        CmpOp::Eq => cmp_holds(CmpOp::Le, lo, k) && cmp_holds(CmpOp::Ge, hi, k),
        CmpOp::Ne => !(compare(lo, hi).is_eq() && cmp_holds(CmpOp::Eq, lo, k)),
        CmpOp::Lt | CmpOp::Le => cmp_holds(op, lo, k),
        CmpOp::Gt | CmpOp::Ge => cmp_holds(op, hi, k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::AccessStrategy;
    use tc_adm::path::parse_path;

    const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    /// The zone a producer builds over `values`.
    fn zone_of(values: &[Value]) -> ColumnZone {
        let mut range: Option<(Value, Value)> = None;
        let mut ranks = 0u32;
        for v in values {
            let tag = v.type_tag();
            if v.is_null_or_missing() {
                continue;
            }
            if !tag.is_numeric() {
                ranks |= 1 << type_rank(tag);
                continue;
            }
            range = Some(match range {
                None => (v.clone(), v.clone()),
                Some((lo, hi)) => (
                    if compare(v, &lo).is_lt() { v.clone() } else { lo },
                    if compare(v, &hi).is_gt() { v.clone() } else { hi },
                ),
            });
        }
        let num = |v: Value| v.as_i64().map(Num::Int).or(v.as_f64().map(Num::Double));
        let range = range.map(|(lo, hi)| (num(lo).unwrap(), num(hi).unwrap()));
        ColumnZone::Known { range, ranks }
    }

    fn filter_on_t(conjuncts: &[(CmpOp, Value)]) -> ScanSpec {
        let mut exprs =
            conjuncts.iter().map(|(op, k)| Expr::cmp(*op, Expr::col(0), Expr::Const(k.clone())));
        let first = exprs.next().unwrap();
        ScanSpec {
            paths: vec![parse_path("t")],
            filter: Some(exprs.fold(first, Expr::and)),
            late_paths: vec![],
            access: AccessStrategy::Consolidated,
        }
    }

    /// Never a false "no": over random value sets (ints, doubles with NaN
    /// and signed zeros, strings, booleans, nulls, arrays) and random one- or
    /// two-conjunct filters, a unit any of whose values passes may match.
    #[test]
    fn may_match_never_excludes_a_passing_value() {
        let pool = [
            Value::Int64(-3),
            Value::Int64(0),
            Value::Int64(2),
            Value::Int64(7),
            Value::Int32(2),
            Value::Double(2.0),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(2.5),
            Value::Double(f64::NAN),
            Value::Double(f64::INFINITY),
            Value::string("changed_17"),
            Value::Boolean(true),
            Value::Null,
            Value::Array(vec![]),
        ];
        let literals = [
            Value::Int64(-3),
            Value::Int64(2),
            Value::Int64(3),
            Value::Double(2.0),
            Value::Double(2.5),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Int32(7),
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let (mut checked, mut excluded) = (0, 0);
        for _ in 0..20_000 {
            let values: Vec<Value> =
                (0..1 + next(4)).map(|_| pool[next(pool.len())].clone()).collect();
            let conjuncts: Vec<(CmpOp, Value)> = (0..1 + next(2))
                .map(|_| (OPS[next(OPS.len())], literals[next(literals.len())].clone()))
                .collect();
            let scan = filter_on_t(&conjuncts);
            let predicate = ZonePredicate::of(&scan).unwrap();
            let filter = scan.filter.as_ref().unwrap();
            let passes = values.iter().any(|v| filter.eval_bool(std::slice::from_ref(v)));
            let may = predicate.may_match(&[vec!["t".into()]], &[zone_of(&values)]);
            assert!(may || !passes, "{values:?} under {conjuncts:?}");
            checked += 1;
            excluded += !may as usize;
        }
        assert!(excluded > checked / 10, "the test must exercise skips ({excluded}/{checked})");
    }

    #[test]
    fn a_window_skips_blocks_outside_it_and_blocks_of_strings() {
        let window = filter_on_t(&[(CmpOp::Ge, Value::Int64(10)), (CmpOp::Lt, Value::Int64(20))]);
        let p = ZonePredicate::of(&window).unwrap();
        let t = [vec!["t".to_string()]];
        let may = |values: &[Value]| p.may_match(&t, &[zone_of(values)]);
        assert!(may(&[Value::Int64(5), Value::Int64(15)]));
        assert!(!may(&[Value::Int64(5), Value::Int64(9)]));
        assert!(!may(&[Value::Int64(1), Value::string("changed_17"), Value::Null]));
        assert!(!may(&[Value::Int64(20), Value::Double(f64::NAN)]));
        assert!(may(&[Value::Int64(1), Value::Double(19.5)]));
        assert!(p.may_match(&t, &[ColumnZone::Unknown]), "an unknown zone always may");
        assert!(p.may_match(&[vec!["u".into()]], &[zone_of(&[])]), "other columns don't count");
        // A whole block of a type above the numbers passes `>` alone.
        let gt = ZonePredicate::of(&filter_on_t(&[(CmpOp::Gt, Value::Int64(0))])).unwrap();
        assert!(gt.may_match(&t, &[zone_of(&[Value::string("x")])]));
        assert!(!gt.may_match(&t, &[zone_of(&[Value::Boolean(true)])]));
    }

    #[test]
    fn only_numeric_comparisons_on_field_paths_count() {
        let scan = |paths: &[&str], filter: Expr| ScanSpec {
            paths: paths.iter().map(|p| parse_path(p)).collect(),
            filter: Some(filter),
            late_paths: vec![],
            access: AccessStrategy::Consolidated,
        };
        let lt = |col, k: Value| Expr::cmp(CmpOp::Lt, Expr::col(col), Expr::Const(k));
        assert!(ZonePredicate::of(&scan(&["t"], lt(0, Value::string("a")))).is_none());
        assert!(ZonePredicate::of(&scan(&["a[0]"], lt(0, Value::Int64(1)))).is_none());
        assert!(ZonePredicate::of(&scan(&["a[*].t"], lt(0, Value::Int64(1)))).is_none());
        let or = Expr::Or(Box::new(lt(0, Value::Int64(1))), Box::new(lt(0, Value::Int64(2))));
        assert!(ZonePredicate::of(&scan(&["t"], or)).is_none());
        let both = Expr::and(lt(0, Value::string("a")), lt(1, Value::Int64(3)));
        let p = ZonePredicate::of(&scan(&["t", "u"], both)).unwrap();
        assert_eq!(p.conjuncts.len(), 1);
        // `3 > u`, the literal on the left, reads as `u < 3`.
        let flipped = Expr::cmp(CmpOp::Gt, Expr::Const(Value::Int64(3)), Expr::col(0));
        let p = ZonePredicate::of(&scan(&["u"], flipped)).unwrap();
        assert!(!p.may_match(&[vec!["u".into()]], &[zone_of(&[Value::Int64(5)])]));
        // A nested path is judged by the zone over that path alone.
        let p = ZonePredicate::of(&scan(&["a.t"], lt(0, Value::Int64(1)))).unwrap();
        let five = zone_of(&[Value::Int64(5)]);
        assert!(!p.may_match(&[vec!["a".into(), "t".into()]], &[five]));
        assert!(p.may_match(&[vec!["a.t".into()], vec!["t".into()]], &[five, five]));
    }
}
