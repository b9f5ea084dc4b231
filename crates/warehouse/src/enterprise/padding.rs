//! Padding generator that scales the enterprise schema up to the complexity
//! reported in Table 1 of the paper (226 conceptual entities, 436 logical
//! entities, 472 physical tables, 3181 physical columns, …).
//!
//! The padding entities model the hundreds of reference/regulatory subject
//! areas a real enterprise warehouse accumulates; they carry no data, but they
//! are fully present in the metadata graph, so the lookup, traversal and
//! pattern-matching steps of SODA operate at realistic metadata scale.

use soda_relation::{DataType, TableSchema};

use crate::model::{
    AnnotatedForeignKey, ConceptualEntity, InheritanceGroup, LogicalEntity, Relationship,
    RelationshipKind, SchemaModel,
};

/// Targets taken verbatim from Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct PaddingTargets {
    /// Total conceptual entities.
    pub conceptual_entities: usize,
    /// Total conceptual attributes.
    pub conceptual_attributes: usize,
    /// Total conceptual relationships.
    pub conceptual_relationships: usize,
    /// Total logical entities.
    pub logical_entities: usize,
    /// Total logical attributes.
    pub logical_attributes: usize,
    /// Total logical relationships.
    pub logical_relationships: usize,
    /// Total physical tables.
    pub physical_tables: usize,
    /// Total physical columns.
    pub physical_columns: usize,
}

impl Default for PaddingTargets {
    fn default() -> Self {
        // Table 1 of the paper.
        Self {
            conceptual_entities: 226,
            conceptual_attributes: 985,
            conceptual_relationships: 243,
            logical_entities: 436,
            logical_attributes: 2700,
            logical_relationships: 254,
            physical_tables: 472,
            physical_columns: 3181,
        }
    }
}

/// Distributes `total` items over `n` buckets as evenly as possible.
fn distribute(total: usize, n: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let base = total / n;
    let extra = total % n;
    (0..n).map(|i| base + usize::from(i < extra)).collect()
}

/// Extends `model` in place until its [`SchemaStats`](crate::model::SchemaStats)
/// match `targets` exactly.  Panics if the core model already exceeds a
/// target (that would be a programming error in the core schema).
pub(super) fn pad_model(model: &mut SchemaModel, targets: PaddingTargets) {
    let stats = model.stats();
    assert!(
        stats.physical_tables <= targets.physical_tables,
        "core physical too large"
    );
    assert!(
        stats.logical_entities <= targets.logical_entities,
        "core logical too large"
    );
    assert!(
        stats.conceptual_entities <= targets.conceptual_entities,
        "core conceptual too large"
    );

    // ----- physical tables and columns --------------------------------------
    let new_tables = targets.physical_tables - stats.physical_tables;
    let new_columns_total = targets
        .physical_columns
        .saturating_sub(stats.physical_columns);
    let cols_per_table = distribute(new_columns_total, new_tables);
    let mut padding_table_names = Vec::with_capacity(new_tables);
    for (i, &ncols) in cols_per_table.iter().enumerate() {
        let area = i / 8;
        let name = format!("sa{area:02}_ref_table_{i:03}");
        let mut builder = TableSchema::builder(&name)
            .column("id", DataType::Int)
            .primary_key("id");
        // `ncols` includes the id column when possible; always keep >= 1 col.
        for c in 1..ncols.max(1) {
            let ty = match c % 4 {
                0 => DataType::Int,
                1 => DataType::Text,
                2 => DataType::Date,
                _ => DataType::Float,
            };
            builder = builder.column(format!("attr_{c:02}"), ty);
        }
        model.physical.push(builder.build());
        padding_table_names.push(name);
    }

    // FK chains within each subject area (connecting consecutive tables) plus
    // occasional inheritance groups and bridge tables between areas.
    for i in 1..padding_table_names.len() {
        if i % 8 == 0 {
            continue; // start of a new area: no chain edge across areas
        }
        model.foreign_keys.push(AnnotatedForeignKey {
            table: padding_table_names[i].clone(),
            column: "id".into(),
            ref_table: padding_table_names[i - 1].clone(),
            ref_column: "id".into(),
            annotated: true,
            explicit_join_node: i % 3 == 0,
        });
    }
    let mut k = 0;
    while k + 2 < padding_table_names.len() {
        model.inheritance.push(InheritanceGroup {
            parent_table: padding_table_names[k].clone(),
            child_tables: vec![
                padding_table_names[k + 1].clone(),
                padding_table_names[k + 2].clone(),
            ],
        });
        k += 48; // a few dozen inheritance groups across the warehouse
    }

    // ----- logical entities and attributes -----------------------------------
    let new_logical = targets.logical_entities - stats.logical_entities;
    let new_l_attrs = targets
        .logical_attributes
        .saturating_sub(stats.logical_attributes);
    let attrs_per_logical = distribute(new_l_attrs, new_logical);
    let mut padding_logical_names = Vec::with_capacity(new_logical);
    for (i, &nattrs) in attrs_per_logical.iter().enumerate() {
        let name = format!("Reference Entity {i:03}");
        let implemented_by = if !padding_table_names.is_empty() {
            vec![padding_table_names[i % padding_table_names.len()].clone()]
        } else {
            Vec::new()
        };
        model.logical.push(LogicalEntity {
            name: name.clone(),
            attributes: (0..nattrs).map(|a| format!("ref attr {a:02}")).collect(),
            implemented_by,
        });
        padding_logical_names.push(name);
    }
    let new_l_rels = targets
        .logical_relationships
        .saturating_sub(stats.logical_relationships);
    for i in 0..new_l_rels {
        if padding_logical_names.len() < 2 {
            break;
        }
        let from = &padding_logical_names[i % padding_logical_names.len()];
        let to = &padding_logical_names[(i + 1) % padding_logical_names.len()];
        model.logical_relationships.push(Relationship {
            from: from.clone(),
            to: to.clone(),
            kind: if i % 5 == 0 {
                RelationshipKind::ManyToMany
            } else {
                RelationshipKind::ManyToOne
            },
        });
    }

    // ----- conceptual entities and attributes ---------------------------------
    let new_conceptual = targets.conceptual_entities - stats.conceptual_entities;
    let new_c_attrs = targets
        .conceptual_attributes
        .saturating_sub(stats.conceptual_attributes);
    let attrs_per_conceptual = distribute(new_c_attrs, new_conceptual);
    let mut padding_conceptual_names = Vec::with_capacity(new_conceptual);
    for (i, &nattrs) in attrs_per_conceptual.iter().enumerate() {
        let name = format!("Business Area {i:03}");
        let refined_by = if !padding_logical_names.is_empty() {
            vec![padding_logical_names[i % padding_logical_names.len()].clone()]
        } else {
            Vec::new()
        };
        model.conceptual.push(ConceptualEntity {
            name: name.clone(),
            attributes: (0..nattrs)
                .map(|a| format!("business attr {a:02}"))
                .collect(),
            refined_by,
        });
        padding_conceptual_names.push(name);
    }
    let new_c_rels = targets
        .conceptual_relationships
        .saturating_sub(stats.conceptual_relationships);
    for i in 0..new_c_rels {
        if padding_conceptual_names.len() < 2 {
            break;
        }
        let from = &padding_conceptual_names[i % padding_conceptual_names.len()];
        let to = &padding_conceptual_names[(i + 1) % padding_conceptual_names.len()];
        model.conceptual_relationships.push(Relationship {
            from: from.clone(),
            to: to.clone(),
            kind: if i % 4 == 0 {
                RelationshipKind::ManyToMany
            } else {
                RelationshipKind::ManyToOne
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enterprise::schema::core_model_annotated;

    #[test]
    fn distribute_is_exact_and_even() {
        assert_eq!(distribute(10, 3), vec![4, 3, 3]);
        assert_eq!(distribute(9, 3), vec![3, 3, 3]);
        assert_eq!(distribute(2, 5), vec![1, 1, 0, 0, 0]);
        assert!(distribute(5, 0).is_empty());
        assert_eq!(distribute(10, 3).iter().sum::<usize>(), 10);
    }

    #[test]
    fn padding_hits_the_table1_targets_exactly() {
        let mut model = core_model_annotated(false);
        pad_model(&mut model, PaddingTargets::default());
        let s = model.stats();
        assert_eq!(s.conceptual_entities, 226);
        assert_eq!(s.conceptual_attributes, 985);
        assert_eq!(s.conceptual_relationships, 243);
        assert_eq!(s.logical_entities, 436);
        assert_eq!(s.logical_attributes, 2700);
        assert_eq!(s.logical_relationships, 254);
        assert_eq!(s.physical_tables, 472);
        assert_eq!(s.physical_columns, 3181);
    }

    #[test]
    fn padding_adds_inheritance_and_explicit_joins() {
        let mut model = core_model_annotated(false);
        let inh_before = model.inheritance.len();
        pad_model(&mut model, PaddingTargets::default());
        assert!(model.inheritance.len() > inh_before);
        assert!(
            model
                .foreign_keys
                .iter()
                .filter(|fk| fk.explicit_join_node)
                .count()
                > 2
        );
    }

    #[test]
    fn padding_tables_have_valid_schemas() {
        let mut model = core_model_annotated(false);
        pad_model(&mut model, PaddingTargets::default());
        for t in &model.physical {
            assert!(t.arity() >= 1, "table {} has no columns", t.name);
        }
        // Table names are unique.
        let mut names: Vec<_> = model.physical.iter().map(|t| t.name.clone()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
