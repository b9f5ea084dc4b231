//! The paper's running example: a mini-bank with customers that buy and sell
//! financial instruments (Section 2, Figures 1 and 2).
//!
//! The conceptual schema (Figure 1) has Parties (specialised into Individuals
//! and Organizations), Transactions and Financial Instruments.  The logical /
//! physical schema (Figure 2) splits addresses into their own table, splits
//! transactions into financial-instrument and money transactions, and adds the
//! `fi_contains_sec` bridge table for the N-to-N relationship between
//! financial instruments and securities.

use soda_relation::{DataType, Database, TableSchema, Value};

use crate::datagen::{
    DataGen, CITIES, COUNTRIES, CURRENCIES, FAMILY_NAMES, GIVEN_NAMES, LEGAL_FORMS, ORG_NAMES,
    PRODUCT_NAMES, PRODUCT_TYPES, STREETS,
};
use crate::dbpedia::{SynonymStore, SynonymTarget};
use crate::graph_builder::build_graph;
use crate::model::{
    ConceptualEntity, InheritanceGroup, LogicalEntity, Relationship, RelationshipKind, SchemaModel,
    Warehouse,
};
use crate::ontology::{ClassifyTarget, ConceptFilter, DomainOntology, OntologyConcept};

/// Number of individual customers generated.
pub(crate) const NUM_INDIVIDUALS: usize = 60;
/// Number of corporate customers generated.
pub(crate) const NUM_ORGANIZATIONS: usize = 20;
/// Number of financial instruments generated.
pub(crate) const NUM_INSTRUMENTS: usize = 25;
/// Number of securities generated.
pub(crate) const NUM_SECURITIES: usize = 40;
/// Number of transactions generated (financial-instrument plus money).
pub(crate) const NUM_TRANSACTIONS: usize = 300;

/// The physical schema of the mini-bank (Figure 2, lowered to tables).
pub(crate) fn physical_schema() -> Vec<TableSchema> {
    vec![
        TableSchema::builder("parties")
            .column("id", DataType::Int)
            .column("party_type", DataType::Text)
            .primary_key("id")
            .comment("customers of the bank")
            .build(),
        TableSchema::builder("individuals")
            .column("id", DataType::Int)
            .column("firstname", DataType::Text)
            .column("lastname", DataType::Text)
            .column("salary", DataType::Float)
            .column("birthday", DataType::Date)
            .primary_key("id")
            .foreign_key("id", "parties", "id")
            .comment("private banking customers")
            .build(),
        TableSchema::builder("organizations")
            .column("id", DataType::Int)
            .column("companyname", DataType::Text)
            .column("legal_form", DataType::Text)
            .primary_key("id")
            .foreign_key("id", "parties", "id")
            .comment("investment banking customers")
            .build(),
        TableSchema::builder("addresses")
            .column("address_id", DataType::Int)
            .column("party_id", DataType::Int)
            .column("street", DataType::Text)
            .column("city", DataType::Text)
            .column("country", DataType::Text)
            .primary_key("address_id")
            .foreign_key("party_id", "individuals", "id")
            .build(),
        TableSchema::builder("transactions")
            .column("id", DataType::Int)
            .column("toparty", DataType::Int)
            .column("transactiondate", DataType::Date)
            .primary_key("id")
            .foreign_key("toparty", "parties", "id")
            .build(),
        TableSchema::builder("fi_transactions")
            .column("id", DataType::Int)
            .column("instrument_id", DataType::Int)
            .column("amount", DataType::Float)
            .primary_key("id")
            .foreign_key("id", "transactions", "id")
            .foreign_key("instrument_id", "financial_instruments", "instrument_id")
            .build(),
        TableSchema::builder("money_transactions")
            .column("id", DataType::Int)
            .column("amount", DataType::Float)
            .column("currency", DataType::Text)
            .primary_key("id")
            .foreign_key("id", "transactions", "id")
            .build(),
        TableSchema::builder("financial_instruments")
            .column("instrument_id", DataType::Int)
            .column("name", DataType::Text)
            .column("instrument_type", DataType::Text)
            .column("issuer", DataType::Text)
            .primary_key("instrument_id")
            .build(),
        TableSchema::builder("securities")
            .column("security_id", DataType::Int)
            .column("name", DataType::Text)
            .column("isin", DataType::Text)
            .primary_key("security_id")
            .build(),
        TableSchema::builder("fi_contains_sec")
            .column("instrument_id", DataType::Int)
            .column("security_id", DataType::Int)
            .foreign_key("instrument_id", "financial_instruments", "instrument_id")
            .foreign_key("security_id", "securities", "security_id")
            .build(),
    ]
}

/// The three-layer schema model of the mini-bank.
pub fn schema_model() -> SchemaModel {
    let conceptual = vec![
        ConceptualEntity {
            name: "Parties".into(),
            attributes: vec!["name".into(), "domicile".into()],
            refined_by: vec![
                "Parties".into(),
                "Individuals".into(),
                "Organizations".into(),
            ],
        },
        ConceptualEntity {
            name: "Individuals".into(),
            attributes: vec![
                "first name".into(),
                "last name".into(),
                "salary".into(),
                "birthday".into(),
            ],
            refined_by: vec!["Individuals".into(), "Addresses".into()],
        },
        ConceptualEntity {
            name: "Organizations".into(),
            attributes: vec!["company name".into(), "legal form".into()],
            refined_by: vec!["Organizations".into()],
        },
        ConceptualEntity {
            name: "Transactions".into(),
            attributes: vec!["amount".into(), "transaction date".into()],
            refined_by: vec![
                "Transactions".into(),
                "Financial Instrument Transactions".into(),
                "Money Transactions".into(),
            ],
        },
        ConceptualEntity {
            name: "Financial Instruments".into(),
            attributes: vec!["name".into(), "type".into(), "issuer".into()],
            refined_by: vec!["Financial Instruments".into(), "Securities".into()],
        },
    ];
    let conceptual_relationships = vec![
        Relationship {
            from: "Parties".into(),
            to: "Transactions".into(),
            kind: RelationshipKind::ManyToMany,
        },
        Relationship {
            from: "Transactions".into(),
            to: "Financial Instruments".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Parties".into(),
            to: "Individuals".into(),
            kind: RelationshipKind::Inheritance,
        },
        Relationship {
            from: "Parties".into(),
            to: "Organizations".into(),
            kind: RelationshipKind::Inheritance,
        },
        Relationship {
            from: "Financial Instruments".into(),
            to: "Financial Instruments".into(),
            kind: RelationshipKind::ManyToMany,
        },
    ];
    let logical = vec![
        LogicalEntity {
            name: "Parties".into(),
            attributes: vec!["id".into(), "party type".into()],
            implemented_by: vec!["parties".into()],
        },
        LogicalEntity {
            name: "Individuals".into(),
            attributes: vec![
                "firstname".into(),
                "lastname".into(),
                "salary".into(),
                "birthday".into(),
            ],
            implemented_by: vec!["individuals".into()],
        },
        LogicalEntity {
            name: "Organizations".into(),
            attributes: vec!["companyname".into(), "legal form".into()],
            implemented_by: vec!["organizations".into()],
        },
        LogicalEntity {
            name: "Addresses".into(),
            attributes: vec!["street".into(), "city".into(), "country".into()],
            implemented_by: vec!["addresses".into()],
        },
        LogicalEntity {
            name: "Transactions".into(),
            attributes: vec!["transaction date".into()],
            implemented_by: vec!["transactions".into()],
        },
        LogicalEntity {
            name: "Financial Instrument Transactions".into(),
            attributes: vec!["amount".into(), "instrument".into()],
            implemented_by: vec!["fi_transactions".into()],
        },
        LogicalEntity {
            name: "Money Transactions".into(),
            attributes: vec!["amount".into(), "currency".into()],
            implemented_by: vec!["money_transactions".into()],
        },
        LogicalEntity {
            name: "Financial Instruments".into(),
            attributes: vec!["name".into(), "instrument type".into(), "issuer".into()],
            implemented_by: vec!["financial_instruments".into(), "fi_contains_sec".into()],
        },
        LogicalEntity {
            name: "Securities".into(),
            attributes: vec!["name".into(), "isin".into()],
            implemented_by: vec!["securities".into()],
        },
    ];
    let logical_relationships = vec![
        Relationship {
            from: "Individuals".into(),
            to: "Addresses".into(),
            kind: RelationshipKind::ManyToOne,
        },
        Relationship {
            from: "Parties".into(),
            to: "Individuals".into(),
            kind: RelationshipKind::Inheritance,
        },
        Relationship {
            from: "Parties".into(),
            to: "Organizations".into(),
            kind: RelationshipKind::Inheritance,
        },
        Relationship {
            from: "Transactions".into(),
            to: "Financial Instrument Transactions".into(),
            kind: RelationshipKind::Inheritance,
        },
        Relationship {
            from: "Transactions".into(),
            to: "Money Transactions".into(),
            kind: RelationshipKind::Inheritance,
        },
        Relationship {
            from: "Financial Instruments".into(),
            to: "Securities".into(),
            kind: RelationshipKind::ManyToMany,
        },
    ];
    let inheritance = vec![
        InheritanceGroup {
            parent_table: "parties".into(),
            child_tables: vec!["individuals".into(), "organizations".into()],
        },
        InheritanceGroup {
            parent_table: "transactions".into(),
            child_tables: vec!["fi_transactions".into(), "money_transactions".into()],
        },
    ];
    let mut model = SchemaModel {
        conceptual,
        conceptual_relationships,
        logical,
        logical_relationships,
        physical: physical_schema(),
        foreign_keys: Vec::new(),
        inheritance,
        historization: Vec::new(),
    };
    model.adopt_physical_foreign_keys();
    model
}

/// The mini-bank domain ontology: customer classification, the "wealthy
/// customers" business term and "trading volume".
pub fn ontology() -> DomainOntology {
    let mut o = DomainOntology::new();
    o.add(
        OntologyConcept::new("customers", "customers")
            .alt("customer")
            .classifies(ClassifyTarget::Conceptual("Parties".into())),
    );
    o.add(
        OntologyConcept::new("private-customers", "private customers")
            .classifies(ClassifyTarget::Table("individuals".into())),
    );
    o.add(
        OntologyConcept::new("corporate-customers", "corporate customers")
            .classifies(ClassifyTarget::Table("organizations".into())),
    );
    o.add(
        OntologyConcept::new("wealthy-customers", "wealthy customers")
            .alt("wealthy individuals")
            .classifies(ClassifyTarget::Table("individuals".into()))
            .with_filter(ConceptFilter {
                table: "individuals".into(),
                column: "salary".into(),
                op: ">=".into(),
                value: "500000".into(),
            }),
    );
    o.add(
        OntologyConcept::new("trading-volume", "trading volume").classifies(
            ClassifyTarget::Column {
                table: "fi_transactions".into(),
                column: "amount".into(),
            },
        ),
    );
    o.add(
        OntologyConcept::new("names", "names")
            .alt("name")
            .classifies(ClassifyTarget::Column {
                table: "individuals".into(),
                column: "lastname".into(),
            })
            .classifies(ClassifyTarget::Column {
                table: "organizations".into(),
                column: "companyname".into(),
            }),
    );
    o
}

/// The curated DBpedia extract for the mini-bank (§2.2: only entries with a
/// direct connection to schema terms are kept).
pub fn synonyms() -> SynonymStore {
    let mut s = SynonymStore::new();
    s.add("client", SynonymTarget::Concept("customers".into()));
    s.add("purchaser", SynonymTarget::Concept("customers".into()));
    s.add(
        "political organization",
        SynonymTarget::Conceptual("Parties".into()),
    );
    s.add("company", SynonymTarget::Table("organizations".into()));
    s.add("firm", SynonymTarget::Table("organizations".into()));
    s.add("person", SynonymTarget::Table("individuals".into()));
    s.add(
        "stock",
        SynonymTarget::Conceptual("Financial Instruments".into()),
    );
    s.add(
        "share",
        SynonymTarget::Conceptual("Financial Instruments".into()),
    );
    s.add(
        "payment",
        SynonymTarget::Logical("Money Transactions".into()),
    );
    s
}

/// Populates the base data of the mini-bank.
pub fn populate(db: &mut Database, seed: u64) {
    let mut gen = DataGen::new(seed);

    // Parties: individuals first, then organizations.
    for id in 1..=(NUM_INDIVIDUALS as i64) {
        db.insert("parties", vec![Value::Int(id), Value::from("individual")])
            .expect("insert party");
        let (first, last) = if id == 1 {
            ("Sara", "Guttinger")
        } else {
            (*gen.pick(GIVEN_NAMES), *gen.pick(FAMILY_NAMES))
        };
        let salary = if gen.chance(0.15) {
            gen.amount(500_000.0, 1_200_000.0)
        } else {
            gen.amount(50_000.0, 400_000.0)
        };
        db.insert(
            "individuals",
            vec![
                Value::Int(id),
                Value::from(first),
                Value::from(last),
                Value::Float(salary),
                Value::Date(gen.date(1950, 1995)),
            ],
        )
        .expect("insert individual");
        db.insert(
            "addresses",
            vec![
                Value::Int(id),
                Value::Int(id),
                Value::from(*gen.pick(STREETS)),
                Value::from(if id == 1 { "Zurich" } else { *gen.pick(CITIES) }),
                Value::from(*gen.pick(COUNTRIES)),
            ],
        )
        .expect("insert address");
    }
    for i in 0..NUM_ORGANIZATIONS {
        let id = (NUM_INDIVIDUALS + 1 + i) as i64;
        db.insert("parties", vec![Value::Int(id), Value::from("organization")])
            .expect("insert party");
        db.insert(
            "organizations",
            vec![
                Value::Int(id),
                Value::from(ORG_NAMES[i % ORG_NAMES.len()]),
                Value::from(*gen.pick(LEGAL_FORMS)),
            ],
        )
        .expect("insert organization");
    }

    // Financial instruments and securities.
    for i in 0..NUM_INSTRUMENTS {
        db.insert(
            "financial_instruments",
            vec![
                Value::Int(i as i64 + 1),
                Value::from(PRODUCT_NAMES[i % PRODUCT_NAMES.len()]),
                Value::from(*gen.pick(PRODUCT_TYPES)),
                Value::from(ORG_NAMES[gen.index(ORG_NAMES.len())]),
            ],
        )
        .expect("insert instrument");
    }
    for i in 0..NUM_SECURITIES {
        db.insert(
            "securities",
            vec![
                Value::Int(i as i64 + 1),
                Value::from(format!("{} Security {i}", gen.pick(ORG_NAMES))),
                Value::from(format!("CH{:010}", 1_000_000 + i)),
            ],
        )
        .expect("insert security");
    }
    for _ in 0..(NUM_INSTRUMENTS * 3) {
        db.insert(
            "fi_contains_sec",
            vec![
                Value::Int(gen.int(1, NUM_INSTRUMENTS as i64)),
                Value::Int(gen.int(1, NUM_SECURITIES as i64)),
            ],
        )
        .expect("insert fi_contains_sec");
    }

    // Transactions: the first ~73% are financial-instrument transactions.
    let fi_count = NUM_TRANSACTIONS * 73 / 100;
    for id in 1..=(NUM_TRANSACTIONS as i64) {
        let toparty = gen.int(1, (NUM_INDIVIDUALS + NUM_ORGANIZATIONS) as i64);
        db.insert(
            "transactions",
            vec![
                Value::Int(id),
                Value::Int(toparty),
                Value::Date(gen.date(2009, 2011)),
            ],
        )
        .expect("insert transaction");
        if id <= fi_count as i64 {
            db.insert(
                "fi_transactions",
                vec![
                    Value::Int(id),
                    Value::Int(gen.int(1, NUM_INSTRUMENTS as i64)),
                    Value::Float(gen.amount(100.0, 50_000.0)),
                ],
            )
            .expect("insert fi transaction");
        } else {
            db.insert(
                "money_transactions",
                vec![
                    Value::Int(id),
                    Value::Float(gen.amount(10.0, 20_000.0)),
                    Value::from(CURRENCIES[gen.index(CURRENCIES.len())].0),
                ],
            )
            .expect("insert money transaction");
        }
    }
}

/// Builds the complete mini-bank warehouse: schema, seeded data and metadata
/// graph.
pub fn build(seed: u64) -> Warehouse {
    let model = schema_model();
    let mut database = Database::new();
    for schema in &model.physical {
        database.create_table(schema.clone()).expect("create table");
    }
    populate(&mut database, seed);
    let graph = build_graph(&model, &ontology(), &synonyms());
    Warehouse {
        database,
        graph,
        model,
        name: "mini-bank".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_metagraph::builder::{preds, types};

    #[test]
    fn build_is_deterministic_per_seed() {
        let a = build(42);
        let b = build(42);
        assert_eq!(a.database.total_rows(), b.database.total_rows());
        let rows_a = a.database.table("individuals").unwrap().rows().to_vec();
        let rows_b = b.database.table("individuals").unwrap().rows().to_vec();
        assert_eq!(rows_a, rows_b);
        let c = build(43);
        let rows_c = c.database.table("individuals").unwrap().rows().to_vec();
        assert_ne!(rows_a, rows_c);
    }

    #[test]
    fn base_data_contains_the_paper_literals() {
        let w = build(42);
        let sara = w
            .database
            .run_sql(
                "SELECT * FROM individuals WHERE firstname = 'Sara' AND lastname = 'Guttinger'",
            )
            .unwrap();
        assert!(sara.row_count() >= 1);
        let zurich = w
            .database
            .run_sql("SELECT * FROM addresses WHERE city = 'Zurich'")
            .unwrap();
        assert!(zurich.row_count() >= 1);
    }

    #[test]
    fn all_ten_physical_tables_exist_and_are_populated_where_expected() {
        let w = build(42);
        assert_eq!(w.database.table_count(), 10);
        assert_eq!(
            w.database.table("parties").unwrap().row_count(),
            NUM_INDIVIDUALS + NUM_ORGANIZATIONS
        );
        assert_eq!(
            w.database.table("individuals").unwrap().row_count(),
            NUM_INDIVIDUALS
        );
        assert_eq!(
            w.database.table("transactions").unwrap().row_count(),
            NUM_TRANSACTIONS
        );
        assert!(w.database.table("fi_transactions").unwrap().row_count() > 0);
        assert!(w.database.table("money_transactions").unwrap().row_count() > 0);
    }

    #[test]
    fn referential_integrity_of_generated_data() {
        let w = build(42);
        // Every individual id exists in parties.
        let orphan = w
            .database
            .run_sql(
                "SELECT individuals.id FROM individuals, parties \
                 WHERE individuals.id = parties.id",
            )
            .unwrap();
        assert_eq!(orphan.row_count(), NUM_INDIVIDUALS);
        // Every fi_transaction joins to a transaction.
        let fi = w
            .database
            .run_sql(
                "SELECT fi_transactions.id FROM fi_transactions, transactions \
                 WHERE fi_transactions.id = transactions.id",
            )
            .unwrap();
        assert_eq!(
            fi.row_count(),
            w.database.table("fi_transactions").unwrap().row_count()
        );
    }

    #[test]
    fn graph_contains_the_figure5_entry_points() {
        let w = build(42);
        // "customers" is found in the domain ontology.
        let hits = w.graph.nodes_with_label("customers");
        assert!(hits
            .iter()
            .any(|(n, _)| w.graph.has_type(*n, types::ONTOLOGY_CONCEPT)));
        // "financial instruments" is found in the conceptual AND logical schema.
        let fi_hits = w.graph.nodes_with_label("financial instruments");
        let kinds: Vec<bool> = fi_hits
            .iter()
            .map(|(n, _)| w.graph.has_type(*n, types::CONCEPTUAL_ENTITY))
            .collect();
        assert!(kinds.contains(&true));
        assert!(fi_hits
            .iter()
            .any(|(n, _)| w.graph.has_type(*n, types::LOGICAL_ENTITY)));
    }

    #[test]
    fn inheritance_and_bridge_structures_exist_in_the_graph() {
        let w = build(42);
        let inh = w.graph.node("inh/parties").unwrap();
        assert_eq!(w.graph.objects_of(inh, preds::INHERITANCE_CHILD).len(), 2);
        // fi_contains_sec has two annotated foreign keys (a bridge table).
        let c1 = w.graph.node("phys/fi_contains_sec/instrument_id").unwrap();
        let c2 = w.graph.node("phys/fi_contains_sec/security_id").unwrap();
        assert_eq!(w.graph.objects_of(c1, preds::FOREIGN_KEY).len(), 1);
        assert_eq!(w.graph.objects_of(c2, preds::FOREIGN_KEY).len(), 1);
    }

    #[test]
    fn wealthy_customers_filter_is_in_the_metadata() {
        let w = build(42);
        let wealthy = w.graph.node("onto/wealthy-customers").unwrap();
        let filters = w.graph.objects_of(wealthy, preds::DEFINED_FILTER);
        assert_eq!(filters.len(), 1);
        assert_eq!(w.graph.text_of(filters[0], preds::FILTER_OP), Some(">="));
    }

    #[test]
    fn stats_reflect_the_small_schema() {
        let w = build(42);
        let s = w.stats();
        assert_eq!(s.physical_tables, 10);
        assert_eq!(s.conceptual_entities, 5);
        assert_eq!(s.logical_entities, 9);
        assert!(s.physical_columns > 30);
    }
}
