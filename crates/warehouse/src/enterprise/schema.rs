//! The core (populated) physical, logical and conceptual schema of the
//! synthetic enterprise warehouse.
//!
//! The schema mirrors the structural features the paper attributes its
//! results to: a `party` super-type with `individual` / `organization`
//! sub-types (Figure 10), bi-temporally historised name tables whose join keys
//! are *not* annotated in the metadata graph, an `associate_employment` bridge
//! table between the inheritance siblings, agreements → accounts → trade
//! orders → investment products → securities chains for the 5-way joins, and a
//! currency dimension.

use soda_relation::{DataType, TableSchema};

use crate::model::{
    AnnotatedForeignKey, ConceptualEntity, HistorizationLink, InheritanceGroup, LogicalEntity,
    Relationship, RelationshipKind, SchemaModel,
};

/// The core physical tables (all of them populated by the data generator).
pub(super) fn core_physical_schema() -> Vec<TableSchema> {
    vec![
        TableSchema::builder("party")
            .column("party_id", DataType::Int)
            .column("party_type", DataType::Text)
            .column("open_dt", DataType::Date)
            .column("valid_from", DataType::Date)
            .column("valid_to", DataType::Date)
            .primary_key("party_id")
            .comment("customers and counterparties")
            .build(),
        TableSchema::builder("individual")
            .column("party_id", DataType::Int)
            .column("given_name", DataType::Text)
            .column("family_name", DataType::Text)
            .column("birth_dt", DataType::Date)
            .column("salary", DataType::Float)
            .column("domicile_country", DataType::Text)
            .primary_key("party_id")
            .foreign_key("party_id", "party", "party_id")
            .comment("private customers")
            .build(),
        TableSchema::builder("individual_name_hist")
            .column("party_id", DataType::Int)
            .column("given_name", DataType::Text)
            .column("family_name", DataType::Text)
            .column("valid_from", DataType::Date)
            .column("valid_to", DataType::Date)
            .comment("bi-temporal name history of private customers")
            .build(),
        TableSchema::builder("organization")
            .column("party_id", DataType::Int)
            .column("org_name", DataType::Text)
            .column("legal_form", DataType::Text)
            .column("country", DataType::Text)
            .primary_key("party_id")
            .foreign_key("party_id", "party", "party_id")
            .comment("corporate customers")
            .build(),
        TableSchema::builder("organization_name_hist")
            .column("party_id", DataType::Int)
            .column("org_name", DataType::Text)
            .column("valid_from", DataType::Date)
            .column("valid_to", DataType::Date)
            .comment("bi-temporal name history of corporate customers")
            .build(),
        TableSchema::builder("address")
            .column("address_id", DataType::Int)
            .column("party_id", DataType::Int)
            .column("street", DataType::Text)
            .column("city", DataType::Text)
            .column("country", DataType::Text)
            .column("valid_from", DataType::Date)
            .column("valid_to", DataType::Date)
            .primary_key("address_id")
            .foreign_key("party_id", "party", "party_id")
            .build(),
        TableSchema::builder("agreement_td")
            .column("agreement_id", DataType::Int)
            .column("agreement_name", DataType::Text)
            .column("party_id", DataType::Int)
            .column("open_dt", DataType::Date)
            .primary_key("agreement_id")
            .foreign_key("party_id", "party", "party_id")
            .comment("agreements and deals")
            .build(),
        TableSchema::builder("account_td")
            .column("account_id", DataType::Int)
            .column("agreement_id", DataType::Int)
            .column("currency_cd", DataType::Text)
            .column("account_type", DataType::Text)
            .primary_key("account_id")
            .foreign_key("agreement_id", "agreement_td", "agreement_id")
            .foreign_key("currency_cd", "currency", "currency_cd")
            .build(),
        TableSchema::builder("trade_order_td")
            .column("order_id", DataType::Int)
            .column("account_id", DataType::Int)
            .column("instrument_id", DataType::Int)
            .column("order_dt", DataType::Date)
            .column("amount", DataType::Float)
            .column("currency_cd", DataType::Text)
            .column("status", DataType::Text)
            .primary_key("order_id")
            .foreign_key("account_id", "account_td", "account_id")
            .foreign_key("instrument_id", "investment_product_td", "instrument_id")
            .foreign_key("currency_cd", "currency", "currency_cd")
            .comment("trade orders")
            .build(),
        TableSchema::builder("investment_product_td")
            .column("instrument_id", DataType::Int)
            .column("product_name", DataType::Text)
            .column("product_type", DataType::Text)
            .column("issuer", DataType::Text)
            .primary_key("instrument_id")
            .comment("investment products")
            .build(),
        TableSchema::builder("security_td")
            .column("security_id", DataType::Int)
            .column("sec_name", DataType::Text)
            .column("isin", DataType::Text)
            .column("currency_cd", DataType::Text)
            .primary_key("security_id")
            .foreign_key("currency_cd", "currency", "currency_cd")
            .build(),
        TableSchema::builder("product_contains_sec")
            .column("instrument_id", DataType::Int)
            .column("security_id", DataType::Int)
            .foreign_key("instrument_id", "investment_product_td", "instrument_id")
            .foreign_key("security_id", "security_td", "security_id")
            .comment("composition of structured products")
            .build(),
        TableSchema::builder("money_transaction_td")
            .column("txn_id", DataType::Int)
            .column("account_id", DataType::Int)
            .column("amount", DataType::Float)
            .column("currency_cd", DataType::Text)
            .column("txn_dt", DataType::Date)
            .primary_key("txn_id")
            .foreign_key("account_id", "account_td", "account_id")
            .foreign_key("currency_cd", "currency", "currency_cd")
            .build(),
        TableSchema::builder("currency")
            .column("currency_cd", DataType::Text)
            .column("currency_name", DataType::Text)
            .primary_key("currency_cd")
            .build(),
        TableSchema::builder("associate_employment")
            .column("individual_id", DataType::Int)
            .column("organization_id", DataType::Int)
            .column("role", DataType::Text)
            .foreign_key("individual_id", "individual", "party_id")
            .foreign_key("organization_id", "organization", "party_id")
            .comment("employment relationship between private and corporate customers")
            .build(),
        TableSchema::builder("party_classification")
            .column("party_id", DataType::Int)
            .column("segment", DataType::Text)
            .column("valid_from", DataType::Date)
            .foreign_key("party_id", "party", "party_id")
            .build(),
    ]
}

/// Logical entities of the core schema.
pub(super) fn core_logical_entities() -> Vec<LogicalEntity> {
    vec![
        LogicalEntity {
            name: "Party".into(),
            attributes: vec!["party id".into(), "party type".into(), "open dt".into()],
            implemented_by: vec!["party".into()],
        },
        LogicalEntity {
            name: "Individual".into(),
            attributes: vec![
                "given name".into(),
                "family name".into(),
                "birth dt".into(),
                "salary".into(),
                "domicile country".into(),
            ],
            implemented_by: vec!["individual".into()],
        },
        LogicalEntity {
            name: "Individual Name History".into(),
            attributes: vec![
                "given name".into(),
                "family name".into(),
                "valid from".into(),
            ],
            implemented_by: vec!["individual_name_hist".into()],
        },
        LogicalEntity {
            name: "Organization".into(),
            attributes: vec!["org name".into(), "legal form".into(), "country".into()],
            implemented_by: vec!["organization".into()],
        },
        LogicalEntity {
            name: "Organization Name History".into(),
            attributes: vec!["org name".into(), "valid from".into()],
            implemented_by: vec!["organization_name_hist".into()],
        },
        LogicalEntity {
            name: "Address".into(),
            attributes: vec!["street".into(), "city".into(), "country".into()],
            implemented_by: vec!["address".into()],
        },
        LogicalEntity {
            name: "Agreement".into(),
            attributes: vec!["agreement name".into(), "open dt".into()],
            implemented_by: vec!["agreement_td".into()],
        },
        LogicalEntity {
            name: "Account".into(),
            attributes: vec!["currency cd".into(), "account type".into()],
            implemented_by: vec!["account_td".into()],
        },
        LogicalEntity {
            name: "Trade Order".into(),
            attributes: vec![
                "order dt".into(),
                "amount".into(),
                "currency cd".into(),
                "status".into(),
            ],
            implemented_by: vec!["trade_order_td".into()],
        },
        LogicalEntity {
            name: "Investment Product".into(),
            attributes: vec![
                "product name".into(),
                "product type".into(),
                "issuer".into(),
            ],
            implemented_by: vec!["investment_product_td".into()],
        },
        LogicalEntity {
            name: "Security".into(),
            attributes: vec!["sec name".into(), "isin".into()],
            implemented_by: vec!["security_td".into()],
        },
        LogicalEntity {
            name: "Product Composition".into(),
            attributes: vec!["instrument id".into(), "security id".into()],
            implemented_by: vec!["product_contains_sec".into()],
        },
        LogicalEntity {
            name: "Money Transaction".into(),
            attributes: vec!["amount".into(), "currency cd".into(), "txn dt".into()],
            implemented_by: vec!["money_transaction_td".into()],
        },
        LogicalEntity {
            name: "Currency".into(),
            attributes: vec!["currency cd".into(), "currency name".into()],
            implemented_by: vec!["currency".into()],
        },
        LogicalEntity {
            name: "Associate Employment".into(),
            attributes: vec!["role".into()],
            implemented_by: vec!["associate_employment".into()],
        },
        LogicalEntity {
            name: "Party Classification".into(),
            attributes: vec!["segment".into(), "valid from".into()],
            implemented_by: vec!["party_classification".into()],
        },
    ]
}

/// Conceptual entities of the core schema.
pub(super) fn core_conceptual_entities() -> Vec<ConceptualEntity> {
    vec![
        ConceptualEntity {
            name: "Parties".into(),
            attributes: vec!["name".into(), "type".into(), "domicile".into()],
            refined_by: vec!["Party".into(), "Individual".into(), "Organization".into()],
        },
        ConceptualEntity {
            name: "Addresses".into(),
            attributes: vec!["street".into(), "city".into(), "country".into()],
            refined_by: vec!["Address".into()],
        },
        ConceptualEntity {
            name: "Agreements".into(),
            attributes: vec!["agreement name".into(), "opening date".into()],
            refined_by: vec!["Agreement".into()],
        },
        ConceptualEntity {
            name: "Accounts".into(),
            attributes: vec!["currency".into(), "account type".into()],
            refined_by: vec!["Account".into()],
        },
        ConceptualEntity {
            name: "Trade Orders".into(),
            attributes: vec!["order date".into(), "amount".into(), "status".into()],
            refined_by: vec!["Trade Order".into()],
        },
        ConceptualEntity {
            name: "Investment Products".into(),
            attributes: vec![
                "product name".into(),
                "product type".into(),
                "issuer".into(),
            ],
            refined_by: vec![
                "Investment Product".into(),
                "Security".into(),
                "Product Composition".into(),
            ],
        },
        ConceptualEntity {
            name: "Payments".into(),
            attributes: vec!["amount".into(), "payment date".into()],
            refined_by: vec!["Money Transaction".into()],
        },
        ConceptualEntity {
            name: "Currencies".into(),
            attributes: vec!["currency code".into(), "currency name".into()],
            refined_by: vec!["Currency".into()],
        },
        ConceptualEntity {
            name: "Employment".into(),
            attributes: vec!["role".into()],
            refined_by: vec!["Associate Employment".into()],
        },
        ConceptualEntity {
            name: "Customer Segments".into(),
            attributes: vec!["segment".into()],
            refined_by: vec!["Party Classification".into()],
        },
    ]
}

/// Relationship lists for both upper layers.
pub(super) fn core_relationships() -> (Vec<Relationship>, Vec<Relationship>) {
    let conceptual = vec![
        Relationship {
            from: "Parties".into(),
            to: "Addresses".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Parties".into(),
            to: "Agreements".into(),
            kind: RelationshipKind::ManyToMany,
        },
        Relationship {
            from: "Agreements".into(),
            to: "Accounts".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Accounts".into(),
            to: "Trade Orders".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Trade Orders".into(),
            to: "Investment Products".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Accounts".into(),
            to: "Payments".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Parties".into(),
            to: "Employment".into(),
            kind: RelationshipKind::ManyToMany,
        },
        Relationship {
            from: "Parties".into(),
            to: "Customer Segments".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Investment Products".into(),
            to: "Currencies".into(),
            kind: RelationshipKind::ManyToOne,
        },
    ];
    let logical = vec![
        Relationship {
            from: "Party".into(),
            to: "Individual".into(),
            kind: RelationshipKind::Inheritance,
        },
        Relationship {
            from: "Party".into(),
            to: "Organization".into(),
            kind: RelationshipKind::Inheritance,
        },
        Relationship {
            from: "Individual".into(),
            to: "Individual Name History".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Organization".into(),
            to: "Organization Name History".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Party".into(),
            to: "Address".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Party".into(),
            to: "Agreement".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Agreement".into(),
            to: "Account".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Account".into(),
            to: "Trade Order".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Trade Order".into(),
            to: "Investment Product".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Investment Product".into(),
            to: "Security".into(),
            kind: RelationshipKind::ManyToMany,
        },
        Relationship {
            from: "Account".into(),
            to: "Money Transaction".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Individual".into(),
            to: "Associate Employment".into(),
            kind: RelationshipKind::ManyToMany,
        },
        Relationship {
            from: "Organization".into(),
            to: "Associate Employment".into(),
            kind: RelationshipKind::ManyToMany,
        },
        Relationship {
            from: "Party".into(),
            to: "Party Classification".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Account".into(),
            to: "Currency".into(),
            kind: RelationshipKind::ManyToOne,
        },
    ];
    (conceptual, logical)
}

/// Assembles the core schema model (no padding).  By default it keeps the
/// deliberate historisation gap: the `*_name_hist` join keys exist physically
/// but are *not* annotated in the metadata graph.  `annotate_historization`
/// annotates the bi-temporal historization relationships — the remedy the
/// paper proposes in §5.2.1 ("the schema graph needs to be annotated with join
/// relationships that reflect bi-temporal historization") and lists as future
/// work in §7: the `*_name_hist` join keys become visible to SODA as explicit
/// join nodes, and historization nodes describe which table each history table
/// historizes.
pub(super) fn core_model_annotated(annotate_historization: bool) -> SchemaModel {
    let (conceptual_relationships, logical_relationships) = core_relationships();
    let historization = if annotate_historization {
        vec![
            HistorizationLink {
                hist_table: "individual_name_hist".into(),
                current_table: "individual".into(),
                valid_from_column: "valid_from".into(),
                valid_to_column: "valid_to".into(),
            },
            HistorizationLink {
                hist_table: "organization_name_hist".into(),
                current_table: "organization".into(),
                valid_from_column: "valid_from".into(),
                valid_to_column: "valid_to".into(),
            },
        ]
    } else {
        Vec::new()
    };
    let mut model = SchemaModel {
        conceptual: core_conceptual_entities(),
        conceptual_relationships,
        logical: core_logical_entities(),
        logical_relationships,
        physical: core_physical_schema(),
        foreign_keys: vec![
            AnnotatedForeignKey {
                table: "individual_name_hist".into(),
                column: "party_id".into(),
                ref_table: "individual".into(),
                ref_column: "party_id".into(),
                annotated: annotate_historization,
                explicit_join_node: annotate_historization,
            },
            AnnotatedForeignKey {
                table: "organization_name_hist".into(),
                column: "party_id".into(),
                ref_table: "organization".into(),
                ref_column: "party_id".into(),
                annotated: annotate_historization,
                explicit_join_node: annotate_historization,
            },
            // A couple of the central joins use explicit join nodes, the
            // Credit Suisse style described in §4.2.1.
            AnnotatedForeignKey {
                table: "trade_order_td".into(),
                column: "account_id".into(),
                ref_table: "account_td".into(),
                ref_column: "account_id".into(),
                annotated: true,
                explicit_join_node: true,
            },
            AnnotatedForeignKey {
                table: "account_td".into(),
                column: "agreement_id".into(),
                ref_table: "agreement_td".into(),
                ref_column: "agreement_id".into(),
                annotated: true,
                explicit_join_node: true,
            },
        ],
        inheritance: vec![InheritanceGroup {
            parent_table: "party".into(),
            child_tables: vec!["individual".into(), "organization".into()],
        }],
        historization,
    };
    model.adopt_physical_foreign_keys();
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_schema_has_sixteen_tables() {
        assert_eq!(core_physical_schema().len(), 16);
        assert_eq!(core_logical_entities().len(), 16);
        assert_eq!(core_conceptual_entities().len(), 10);
    }

    #[test]
    fn historisation_joins_are_unannotated() {
        let model = core_model_annotated(false);
        let hist_fks: Vec<_> = model
            .foreign_keys
            .iter()
            .filter(|fk| fk.table.ends_with("_name_hist"))
            .collect();
        assert_eq!(hist_fks.len(), 2);
        assert!(hist_fks.iter().all(|fk| !fk.annotated));
        // All other FKs are annotated.
        assert!(model
            .foreign_keys
            .iter()
            .filter(|fk| !fk.table.ends_with("_name_hist"))
            .all(|fk| fk.annotated));
    }

    #[test]
    fn explicit_join_nodes_are_used_on_the_trading_chain() {
        let model = core_model_annotated(false);
        let explicit: Vec<_> = model
            .foreign_keys
            .iter()
            .filter(|fk| fk.explicit_join_node)
            .collect();
        assert_eq!(explicit.len(), 2);
    }

    #[test]
    fn bridge_between_inheritance_siblings_exists() {
        let model = core_model_annotated(false);
        let bridge = model.physical_table("associate_employment").unwrap();
        assert_eq!(bridge.foreign_keys.len(), 2);
        assert_eq!(bridge.foreign_keys[0].ref_table, "individual");
        assert_eq!(bridge.foreign_keys[1].ref_table, "organization");
    }

    #[test]
    fn every_logical_entity_points_at_an_existing_physical_table() {
        let model = core_model_annotated(false);
        for e in &model.logical {
            for t in &e.implemented_by {
                assert!(model.physical_table(t).is_some(), "missing table {t}");
            }
        }
    }

    #[test]
    fn every_conceptual_refinement_points_at_an_existing_logical_entity() {
        let model = core_model_annotated(false);
        for c in &model.conceptual {
            for l in &c.refined_by {
                assert!(
                    model.logical.iter().any(|e| e.name == *l),
                    "missing logical entity {l}"
                );
            }
        }
    }
}
