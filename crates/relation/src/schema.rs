//! Table schemas: columns, primary keys and foreign keys.
//!
//! Foreign-key definitions are what the SODA graph builder translates into
//! `foreign_key` / join-relationship edges of the metadata graph, so the
//! schema carries them explicitly.

use crate::value::DataType;

/// Definition of a single column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (physical name, e.g. `birth_dt`).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Whether NULLs are allowed.
    pub nullable: bool,
}

/// A foreign-key relationship from one column of this table to a column of a
/// referenced table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKeyDef {
    /// Referencing column in this table.
    pub column: String,
    /// Referenced table name.
    pub ref_table: String,
    /// Referenced column name.
    pub ref_column: String,
}

/// Schema of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Physical table name.
    pub name: String,
    /// Column definitions in order.
    pub columns: Vec<ColumnDef>,
    /// Primary-key columns (may be empty for bridge/history tables).
    pub primary_key: Vec<String>,
    /// Foreign keys declared on this table.
    pub foreign_keys: Vec<ForeignKeyDef>,
    /// Free-form business comment (surfaces in the metadata graph as a label).
    pub comment: Option<String>,
}

impl TableSchema {
    /// Starts a builder for a schema with the given table name.
    pub fn builder(name: impl Into<String>) -> TableSchemaBuilder {
        TableSchemaBuilder {
            schema: TableSchema {
                name: name.into(),
                columns: Vec::new(),
                primary_key: Vec::new(),
                foreign_keys: Vec::new(),
                comment: None,
            },
        }
    }

    /// Index of a column by name (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column definition by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// True if `name` is part of the primary key.
    pub fn is_primary_key(&self, name: &str) -> bool {
        self.primary_key
            .iter()
            .any(|k| k.eq_ignore_ascii_case(name))
    }

    /// Returns the foreign key declared on `column`, if any.
    pub fn foreign_key_of(&self, column: &str) -> Option<&ForeignKeyDef> {
        self.foreign_keys
            .iter()
            .find(|fk| fk.column.eq_ignore_ascii_case(column))
    }
}

/// Fluent builder for [`TableSchema`].
#[derive(Debug, Clone)]
pub struct TableSchemaBuilder {
    schema: TableSchema,
}

impl TableSchemaBuilder {
    /// Adds a non-nullable column.
    pub fn column(mut self, name: impl Into<String>, data_type: DataType) -> Self {
        self.schema.columns.push(ColumnDef {
            name: name.into(),
            data_type,
            nullable: false,
        });
        self
    }

    /// Adds a nullable column.
    pub fn nullable_column(mut self, name: impl Into<String>, data_type: DataType) -> Self {
        self.schema.columns.push(ColumnDef {
            name: name.into(),
            data_type,
            nullable: true,
        });
        self
    }

    /// Declares a single-column primary key (may be called repeatedly for a
    /// composite key).
    pub fn primary_key(mut self, column: impl Into<String>) -> Self {
        self.schema.primary_key.push(column.into());
        self
    }

    /// Declares a foreign key `column → ref_table.ref_column`.
    pub fn foreign_key(
        mut self,
        column: impl Into<String>,
        ref_table: impl Into<String>,
        ref_column: impl Into<String>,
    ) -> Self {
        self.schema.foreign_keys.push(ForeignKeyDef {
            column: column.into(),
            ref_table: ref_table.into(),
            ref_column: ref_column.into(),
        });
        self
    }

    /// Attaches a business comment.
    pub fn comment(mut self, comment: impl Into<String>) -> Self {
        self.schema.comment = Some(comment.into());
        self
    }

    /// Finishes the schema.
    ///
    /// # Panics
    /// Panics if a primary-key or foreign-key column does not exist, or if two
    /// columns share a name — these are programming errors in schema
    /// definitions, not runtime conditions.
    pub fn build(self) -> TableSchema {
        let s = self.schema;
        for (i, c) in s.columns.iter().enumerate() {
            assert!(
                !s.columns[..i]
                    .iter()
                    .any(|o| o.name.eq_ignore_ascii_case(&c.name)),
                "duplicate column {} in table {}",
                c.name,
                s.name
            );
        }
        for pk in &s.primary_key {
            assert!(
                s.column_index(pk).is_some(),
                "primary key column {pk} missing in table {}",
                s.name
            );
        }
        for fk in &s.foreign_keys {
            assert!(
                s.column_index(&fk.column).is_some(),
                "foreign key column {} missing in table {}",
                fk.column,
                s.name
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::builder("individual")
            .column("party_id", DataType::Int)
            .column("given_name", DataType::Text)
            .column("family_name", DataType::Text)
            .nullable_column("salary", DataType::Float)
            .column("birth_dt", DataType::Date)
            .primary_key("party_id")
            .foreign_key("party_id", "party", "party_id")
            .comment("private customers")
            .build()
    }

    #[test]
    fn builder_produces_expected_schema() {
        let s = schema();
        assert_eq!(s.arity(), 5);
        assert_eq!(s.column_index("GIVEN_NAME"), Some(1));
        assert!(s.is_primary_key("party_id"));
        assert!(!s.is_primary_key("salary"));
        assert_eq!(s.foreign_key_of("party_id").unwrap().ref_table, "party");
        assert_eq!(s.comment.as_deref(), Some("private customers"));
        assert!(s.column("salary").unwrap().nullable);
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let s = schema();
        assert!(s.column("Birth_DT").is_some());
        assert!(s.column("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        TableSchema::builder("t")
            .column("a", DataType::Int)
            .column("A", DataType::Int)
            .build();
    }

    #[test]
    #[should_panic(expected = "primary key column")]
    fn missing_primary_key_column_panics() {
        TableSchema::builder("t")
            .column("a", DataType::Int)
            .primary_key("b")
            .build();
    }

    #[test]
    #[should_panic(expected = "foreign key column")]
    fn missing_foreign_key_column_panics() {
        TableSchema::builder("t")
            .column("a", DataType::Int)
            .foreign_key("b", "other", "id")
            .build();
    }

    #[test]
    fn column_names_in_declaration_order() {
        let s = schema();
        assert_eq!(
            s.columns
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec![
                "party_id",
                "given_name",
                "family_name",
                "salary",
                "birth_dt"
            ]
        );
    }
}
