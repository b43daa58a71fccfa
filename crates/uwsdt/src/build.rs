//! Constructing UWSDTs.
//!
//! Two entry points matter in practice (Remark 1 of the paper): loading a
//! "dirty" relation whose fields carry or-sets of possible values
//! ([`from_or_relation`]), and converting a (small) WSD/WSDT produced by the
//! core layer ([`from_wsdt`], [`from_wsd`]).  The or-relation path is the
//! scalable one used by the census workload: the certain data goes straight
//! into the template and each noisy field becomes a single-placeholder
//! component.

use crate::error::{Result, UwsdtError};
use crate::model::Uwsdt;
use std::collections::BTreeMap;
use ws_core::{FieldId, Wsd, Wsdt};
use ws_relational::{Relation, Value};

/// One uncertain field of an or-relation: the alternatives (with weights) of
/// field `attr` of tuple `tuple`.
#[derive(Clone, Debug, PartialEq)]
pub struct OrField {
    /// The tuple index within the relation.
    pub tuple: usize,
    /// The attribute name.
    pub attr: String,
    /// The weighted alternatives; weights must sum to one.
    pub alternatives: Vec<(Value, f64)>,
}

impl OrField {
    /// An or-set field with equally likely alternatives.
    pub fn uniform(tuple: usize, attr: impl Into<String>, values: Vec<Value>) -> Self {
        let p = 1.0 / values.len().max(1) as f64;
        OrField {
            tuple,
            attr: attr.into(),
            alternatives: values.into_iter().map(|v| (v, p)).collect(),
        }
    }
}

/// Build a UWSDT from a fully certain relation plus a list of uncertain
/// fields (the "dirty relation" loading path).
///
/// The `base` relation provides the template values; each entry of
/// `uncertain` replaces one field by a `?` placeholder whose possible values
/// go into a fresh single-placeholder component.
pub fn from_or_relation(base: &Relation, uncertain: &[OrField]) -> Result<Uwsdt> {
    let mut template = base.clone();
    let name = base.schema().relation().to_string();
    for field in uncertain {
        let pos = template.schema().position_of(&field.attr)?;
        let row = template
            .rows_mut()
            .get_mut(field.tuple)
            .ok_or_else(|| UwsdtError::invalid(format!("tuple {} out of range", field.tuple)))?;
        row.set(pos, Value::Unknown);
    }
    let mut uwsdt = Uwsdt::new();
    uwsdt.add_template(template)?;
    for field in uncertain {
        if field.alternatives.is_empty() {
            return Err(UwsdtError::invalid("or-set fields need at least one value"));
        }
        uwsdt.add_placeholder(
            FieldId::new(&name, field.tuple, &field.attr),
            field.alternatives.clone(),
        )?;
    }
    Ok(uwsdt)
}

/// Convert a WSDT (produced by `ws-core`) into the uniform representation.
pub fn from_wsdt(wsdt: &Wsdt) -> Result<Uwsdt> {
    let mut uwsdt = Uwsdt::new();
    // Templates transfer directly; the UWSDT's tuple ids are the template row
    // positions, so remap the WSDT's tuple slots to consecutive positions.
    let mut slot_to_row: BTreeMap<(String, usize), usize> = BTreeMap::new();
    for (name, template) in &wsdt.templates {
        uwsdt.add_template(template.clone())?;
        for (row, slot) in wsdt.tuple_slots[name]
            .iter()
            .enumerate()
            .map(|(r, s)| (r, *s))
        {
            slot_to_row.insert((name.clone(), slot), row);
        }
    }
    for component in &wsdt.components {
        let worlds: Vec<crate::model::WorldEntry> = component
            .rows
            .iter()
            .enumerate()
            .map(|(i, r)| crate::model::WorldEntry {
                lwid: i,
                prob: r.prob,
            })
            .collect();
        let cid = uwsdt.create_component(worlds)?;
        for (pos, field) in component.fields.iter().enumerate() {
            let row = slot_to_row
                .get(&(field.relation.to_string(), field.tuple.0))
                .copied()
                .ok_or_else(|| {
                    UwsdtError::invalid(format!("field {field} refers to a removed tuple"))
                })?;
            let mut values = BTreeMap::new();
            for (lwid, local) in component.rows.iter().enumerate() {
                let v = &local.values[pos];
                if !v.is_bottom() {
                    values.insert(lwid, v.clone());
                }
            }
            uwsdt.add_placeholder_in_component(
                FieldId::new(field.relation.as_ref(), row, field.attr.as_ref()),
                cid,
                values,
            )?;
        }
    }
    Ok(uwsdt)
}

/// Convert a WSD into the uniform representation (via its WSDT).
pub fn from_wsd(wsd: &Wsd) -> Result<Uwsdt> {
    let wsdt = Wsdt::from_wsd(wsd)?;
    from_wsdt(&wsdt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_relational::{Schema, Tuple};

    /// The UWSDT of Figure 8: SSNs of t1/t2 correlated, t1.M uncertain,
    /// everything else certain.
    pub fn figure8_uwsdt() -> Uwsdt {
        let mut template = Relation::new(Schema::new("R", &["S", "N", "M"]).unwrap());
        template
            .push(Tuple::new(vec![
                Value::Unknown,
                Value::text("Smith"),
                Value::Unknown,
            ]))
            .unwrap();
        template
            .push(Tuple::new(vec![
                Value::Unknown,
                Value::text("Brown"),
                Value::int(3),
            ]))
            .unwrap();
        let mut uwsdt = Uwsdt::new();
        uwsdt.add_template(template).unwrap();
        let c1 = uwsdt
            .create_component(vec![
                crate::model::WorldEntry { lwid: 0, prob: 0.2 },
                crate::model::WorldEntry { lwid: 1, prob: 0.4 },
                crate::model::WorldEntry { lwid: 2, prob: 0.4 },
            ])
            .unwrap();
        uwsdt
            .add_placeholder_in_component(
                FieldId::new("R", 0, "S"),
                c1,
                [
                    (0, Value::int(185)),
                    (1, Value::int(785)),
                    (2, Value::int(785)),
                ]
                .into_iter()
                .collect(),
            )
            .unwrap();
        uwsdt
            .add_placeholder_in_component(
                FieldId::new("R", 1, "S"),
                c1,
                [
                    (0, Value::int(186)),
                    (1, Value::int(185)),
                    (2, Value::int(186)),
                ]
                .into_iter()
                .collect(),
            )
            .unwrap();
        uwsdt
            .add_placeholder(
                FieldId::new("R", 0, "M"),
                vec![(Value::int(1), 0.7), (Value::int(2), 0.3)],
            )
            .unwrap();
        uwsdt.validate().unwrap();
        uwsdt
    }

    #[test]
    fn figure8_world_semantics() {
        let uwsdt = figure8_uwsdt();
        assert_eq!(uwsdt.world_count(), 6);
        let worlds = uwsdt.enumerate_worlds(100).unwrap();
        assert_eq!(worlds.len(), 6);
        let total: f64 = worlds.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Every world has both tuples, t2.M is always 3, SSNs always differ.
        for (db, _) in &worlds {
            let r = db.relation("R").unwrap();
            assert_eq!(r.len(), 2);
            assert!(r.rows().iter().any(|t| t[2] == Value::int(3)));
            let ssns = r.distinct_column("S").unwrap();
            assert_eq!(ssns.len(), 2);
        }
        assert_eq!(uwsdt.c_size(), 8);
        assert_eq!(uwsdt.c_size_of("R"), 8);
        assert_eq!(uwsdt.component_ids().len(), 2);
        assert_eq!(uwsdt.placeholders_of("R").len(), 3);
    }

    #[test]
    fn or_relation_loading_matches_manual_construction() {
        let mut base = Relation::new(Schema::new("R", &["A", "B"]).unwrap());
        base.push_values([1i64, 10]).unwrap();
        base.push_values([2i64, 20]).unwrap();
        let uncertain = vec![
            OrField::uniform(0, "A", vec![Value::int(1), Value::int(9)]),
            OrField::uniform(1, "B", vec![Value::int(20), Value::int(21), Value::int(22)]),
        ];
        let uwsdt = from_or_relation(&base, &uncertain).unwrap();
        uwsdt.validate().unwrap();
        assert_eq!(uwsdt.world_count(), 6);
        assert_eq!(uwsdt.c_size(), 5);
        // Template keeps certain values and gets ? for noisy ones.
        let template = uwsdt.template("R").unwrap();
        assert!(template.rows()[0][0].is_unknown());
        assert_eq!(template.rows()[0][1], Value::int(10));
        assert!(template.rows()[1][1].is_unknown());
        // Possible values reflect the or-sets.
        assert_eq!(uwsdt.possible_field_values("R", 1, "B").unwrap().len(), 3);
        assert_eq!(
            uwsdt.possible_field_values("R", 0, "B").unwrap(),
            vec![Value::int(10)]
        );
    }

    #[test]
    fn or_relation_rejects_bad_input() {
        let mut base = Relation::new(Schema::new("R", &["A"]).unwrap());
        base.push_values([1i64]).unwrap();
        assert!(from_or_relation(&base, &[OrField::uniform(5, "A", vec![Value::int(1)])]).is_err());
        assert!(from_or_relation(
            &base,
            &[OrField {
                tuple: 0,
                attr: "A".into(),
                alternatives: vec![]
            }]
        )
        .is_err());
        assert!(from_or_relation(&base, &[OrField::uniform(0, "Z", vec![Value::int(1)])]).is_err());
    }

    #[test]
    fn conversion_from_wsd_preserves_the_world_set() {
        let wsd = ws_core::wsd::example_census_wsd();
        let expected = wsd.rep().unwrap();
        let uwsdt = from_wsd(&wsd).unwrap();
        uwsdt.validate().unwrap();
        let worlds = uwsdt.enumerate_worlds(10_000).unwrap();
        let actual = ws_core::WorldSet::from_weighted_worlds(worlds);
        assert!(expected.same_worlds(&actual));
        assert!(expected.same_distribution(&actual, 1e-9));
        // Figure 5 shape: 3 components, 4 placeholders.
        assert_eq!(uwsdt.component_ids().len(), 3);
        assert_eq!(uwsdt.placeholders_of("R").len(), 4);
    }

    #[test]
    fn conversion_handles_worlds_of_different_sizes() {
        // A WSD where tuple t2 exists only in half of the worlds.
        let mut wsd = Wsd::new();
        wsd.register_relation("R", &["A"], 2).unwrap();
        wsd.set_certain(FieldId::new("R", 0, "A"), Value::int(1))
            .unwrap();
        wsd.set_alternatives(
            FieldId::new("R", 1, "A"),
            vec![(Value::int(2), 0.5), (Value::Bottom, 0.5)],
        )
        .unwrap();
        let expected = wsd.rep().unwrap();
        let uwsdt = from_wsd(&wsd).unwrap();
        let actual = ws_core::WorldSet::from_weighted_worlds(uwsdt.enumerate_worlds(100).unwrap());
        assert!(expected.same_worlds(&actual));
        assert!(expected.same_distribution(&actual, 1e-9));
    }
}
