//! A multi-table JSON document store.
//!
//! [`JsonStore`] is the "database server" face of simdb: named tables of
//! JSON rows with field-path secondary indexes. The store keeps state, not
//! history: its serialized form (and [`JsonStore::snapshot`]) is the
//! tables plus their indexes, so an agent that carries a store in its
//! state is made durable by whoever journals that state. The
//! recommendation mechanism's `UserDB` and `BSMDB` are instances of this
//! store.
//!
//! ```
//! use simdb::store::JsonStore;
//!
//! # fn main() -> Result<(), simdb::error::DbError> {
//! let mut db = JsonStore::new("userdb");
//! db.create_table("profiles")?;
//! db.put("profiles", "u1", serde_json::json!({"category": "books"}))?;
//!
//! // crash...
//! let snapshot = db.snapshot();
//! let restored = JsonStore::restore("userdb", &snapshot)?;
//! assert_eq!(restored.get("profiles", "u1"), db.get("profiles", "u1"));
//! # Ok(())
//! # }
//! ```

use crate::error::{DbError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

type Rows = BTreeMap<String, serde_json::Value>;

/// A field-path secondary index over one table: rows are indexed by the
/// stringified value at `field_path` (dot-separated for nesting, e.g.
/// `"consumer"` or `"item.id"`). The definition is plain data, so the
/// whole store — indexes included — stays serde-serializable and a
/// restored store answers the same lookups.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct FieldIndex {
    field_path: String,
    /// index value -> row keys
    map: BTreeMap<String, std::collections::BTreeSet<String>>,
}

/// Stringify the value found at a dot-separated path inside a row, if
/// present. Strings index by their content; everything else by its JSON
/// text.
fn field_key(row: &serde_json::Value, field_path: &str) -> Option<String> {
    let mut v = row;
    for part in field_path.split('.') {
        v = v.get(part)?;
    }
    Some(match v {
        serde_json::Value::String(s) => s.clone(),
        other => other.to_string(),
    })
}

/// Make `slot` equal to `new`, reusing the object and array nodes both
/// share. Rows such as UserDB's profiles are rewritten whole on every
/// learning event while most of their structure stays: updating in place
/// frees only the spare nodes of the just-built tree, which the allocator
/// hands out again at once, instead of the old row's nodes scattered
/// across the heap.
fn assign(slot: &mut serde_json::Value, new: serde_json::Value) {
    use serde_json::Value;
    match (slot, new) {
        (Value::Object(old), Value::Object(new)) => {
            old.retain(|k, _| new.contains_key(k));
            for (k, v) in new {
                match old.get_mut(&k) {
                    Some(o) => assign(o, v),
                    None => {
                        old.insert(k, v);
                    }
                }
            }
        }
        (Value::Array(old), Value::Array(new)) => {
            old.truncate(new.len());
            for (i, v) in new.into_iter().enumerate() {
                match old.get_mut(i) {
                    Some(o) => assign(o, v),
                    None => old.push(v),
                }
            }
        }
        (slot, new) => *slot = new,
    }
}

impl FieldIndex {
    fn insert(&mut self, key: &str, row: &serde_json::Value) {
        if let Some(ik) = field_key(row, &self.field_path) {
            self.map.entry(ik).or_default().insert(key.to_string());
        }
    }

    fn remove(&mut self, key: &str, row: &serde_json::Value) {
        if let Some(ik) = field_key(row, &self.field_path) {
            if let Some(set) = self.map.get_mut(&ik) {
                set.remove(key);
                if set.is_empty() {
                    self.map.remove(&ik);
                }
            }
        }
    }
}

/// Multi-table JSON store.
///
/// The store itself is serde-serializable, so an agent can carry its
/// database as part of its migratable/deactivatable state — exactly how
/// the PA carries UserDB and the BSMA carries BSMDB in `abcrm-core`. Its
/// size follows its rows, not the number of writes that produced them.
/// Unknown fields are ignored on deserialization, so states written
/// when the store still embedded a write-ahead log (`"wal"`) restore.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct JsonStore {
    #[serde(default)]
    name: String,
    tables: BTreeMap<String, Rows>,
    /// (table, index name) -> index
    #[serde(default)]
    indexes: BTreeMap<String, BTreeMap<String, FieldIndex>>,
}

impl JsonStore {
    /// Create an empty store.
    pub fn new(name: impl Into<String>) -> Self {
        JsonStore {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Store name (e.g. `"userdb"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Create a table. Idempotent: creating an existing table is a no-op.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility.
    pub fn create_table(&mut self, table: &str) -> Result<()> {
        self.tables.entry(table.to_string()).or_default();
        Ok(())
    }

    /// Insert or replace the row at `key`. A replaced row is rewritten in
    /// place: the parts of its tree that `value` still has keep their
    /// allocations.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] if the table does not exist.
    pub fn put(&mut self, table: &str, key: &str, value: serde_json::Value) -> Result<()> {
        let rows = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let table_indexes = self.indexes.get_mut(table);
        match rows.get_mut(key) {
            Some(row) => {
                for index in table_indexes.into_iter().flat_map(|t| t.values_mut()) {
                    index.remove(key, row);
                    index.insert(key, &value);
                }
                assign(row, value);
            }
            None => {
                for index in table_indexes.into_iter().flat_map(|t| t.values_mut()) {
                    index.insert(key, &value);
                }
                rows.insert(key.to_string(), value);
            }
        }
        Ok(())
    }

    /// Typed convenience over [`JsonStore::put`].
    ///
    /// # Errors
    ///
    /// [`DbError::Serialization`] if `value` cannot be serialized;
    /// [`DbError::UnknownTable`] if the table does not exist.
    pub fn put_typed<T: Serialize>(&mut self, table: &str, key: &str, value: &T) -> Result<()> {
        let v = serde_json::to_value(value).map_err(|e| DbError::Serialization(e.to_string()))?;
        self.put(table, key, v)
    }

    /// Row at `key`, if present.
    pub fn get(&self, table: &str, key: &str) -> Option<&serde_json::Value> {
        self.tables.get(table)?.get(key)
    }

    /// Typed convenience over [`JsonStore::get`]; `None` if the row is
    /// absent.
    ///
    /// # Errors
    ///
    /// [`DbError::Serialization`] if the stored row does not match `T`.
    pub fn get_typed<T: serde::de::DeserializeOwned>(
        &self,
        table: &str,
        key: &str,
    ) -> Result<Option<T>> {
        match self.get(table, key) {
            None => Ok(None),
            Some(v) => serde_json::from_value(v.clone())
                .map(Some)
                .map_err(|e| DbError::Serialization(e.to_string())),
        }
    }

    /// Delete the row at `key`. Returns whether a row was removed.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] if the table does not exist.
    pub fn delete(&mut self, table: &str, key: &str) -> Result<bool> {
        let rows = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let removed = rows.remove(key);
        if let Some(old) = &removed {
            if let Some(table_indexes) = self.indexes.get_mut(table) {
                for index in table_indexes.values_mut() {
                    index.remove(key, old);
                }
            }
        }
        Ok(removed.is_some())
    }

    /// Register a field-path secondary index over `table`. Existing rows
    /// are indexed immediately; the index is maintained on every put and
    /// delete thereafter. Replaces any index of the same name.
    ///
    /// `field_path` is dot-separated for nested fields (`"item.id"`).
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] if the table does not exist.
    pub fn add_index(&mut self, table: &str, index: &str, field_path: &str) -> Result<()> {
        let rows = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let mut field_index = FieldIndex {
            field_path: field_path.to_string(),
            map: BTreeMap::new(),
        };
        for (key, row) in rows {
            field_index.insert(key, row);
        }
        self.indexes
            .entry(table.to_string())
            .or_default()
            .insert(index.to_string(), field_index);
        Ok(())
    }

    /// Row keys whose indexed field equals `value`, in key order.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownIndex`] if `index` was never registered on
    /// `table`.
    pub fn lookup(&self, table: &str, index: &str, value: &str) -> Result<Vec<&str>> {
        let field_index = self
            .indexes
            .get(table)
            .and_then(|m| m.get(index))
            .ok_or_else(|| DbError::UnknownIndex(format!("{table}.{index}")))?;
        Ok(field_index
            .map
            .get(value)
            .map(|set| set.iter().map(|s| s.as_str()).collect())
            .unwrap_or_default())
    }

    /// Rows (key + value) whose indexed field equals `value`.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownIndex`] if `index` was never registered on
    /// `table`.
    pub fn lookup_rows(
        &self,
        table: &str,
        index: &str,
        value: &str,
    ) -> Result<Vec<(&str, &serde_json::Value)>> {
        let keys = self.lookup(table, index, value)?;
        let rows = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        Ok(keys
            .into_iter()
            .filter_map(|k| rows.get_key_value(k).map(|(k, v)| (k.as_str(), v)))
            .collect())
    }

    /// Iterate a table's rows in key order.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownTable`] if the table does not exist.
    pub fn scan(&self, table: &str) -> Result<impl Iterator<Item = (&str, &serde_json::Value)>> {
        let rows = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        Ok(rows.iter().map(|(k, v)| (k.as_str(), v)))
    }

    /// Number of rows in a table (0 for unknown tables).
    pub fn table_len(&self, table: &str) -> usize {
        self.tables.get(table).map(|r| r.len()).unwrap_or(0)
    }

    /// Names of all tables, in order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Serialize the store: its tables and their indexes.
    pub fn snapshot(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("snapshot serializes")
    }

    /// Rebuild a store named `name` from a [`JsonStore::snapshot`]; an
    /// empty snapshot gives an empty store.
    ///
    /// # Errors
    ///
    /// [`DbError::Serialization`] for an unreadable snapshot.
    pub fn restore(name: impl Into<String>, snapshot: &[u8]) -> Result<Self> {
        let mut store = if snapshot.is_empty() {
            JsonStore::default()
        } else {
            serde_json::from_slice::<JsonStore>(snapshot)
                .map_err(|e| DbError::Serialization(e.to_string()))?
        };
        store.name = name.into();
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use serde_json::json;

    fn store_with_data() -> JsonStore {
        let mut db = JsonStore::new("test");
        db.create_table("t").unwrap();
        db.put("t", "a", json!(1)).unwrap();
        db.put("t", "b", json!({"x": [1, 2]})).unwrap();
        db
    }

    #[test]
    fn put_get_delete_round_trip() {
        let mut db = store_with_data();
        assert_eq!(db.get("t", "a"), Some(&json!(1)));
        assert!(db.delete("t", "a").unwrap());
        assert!(!db.delete("t", "a").unwrap());
        assert_eq!(db.get("t", "a"), None);
    }

    #[test]
    fn unknown_table_operations_error() {
        let mut db = JsonStore::new("test");
        assert!(matches!(
            db.put("nope", "k", json!(1)),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            db.delete("nope", "k"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(db.scan("nope").is_err());
        assert_eq!(db.table_len("nope"), 0);
    }

    #[test]
    fn typed_put_get_round_trip() {
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct P {
            age: u8,
        }
        let mut db = JsonStore::new("test");
        db.create_table("p").unwrap();
        db.put_typed("p", "u", &P { age: 30 }).unwrap();
        assert_eq!(db.get_typed::<P>("p", "u").unwrap(), Some(P { age: 30 }));
        assert_eq!(db.get_typed::<P>("p", "missing").unwrap(), None);
        // wrong type errors
        db.put("p", "bad", json!("a string")).unwrap();
        assert!(db.get_typed::<P>("p", "bad").is_err());
    }

    #[test]
    fn restore_from_snapshot_gives_the_same_tables_and_index_lookups() {
        let mut db = store_with_data();
        db.add_index("t", "by-x", "x").unwrap();
        db.put("t", "c", json!({"x": [1, 2]})).unwrap();
        db.delete("t", "a").unwrap();
        db.create_table("t2").unwrap();
        db.put("t2", "z", json!(9)).unwrap();
        let restored = JsonStore::restore("test", &db.snapshot()).unwrap();
        assert_eq!(restored.name(), "test");
        assert_eq!(restored.table_names(), db.table_names());
        for table in db.table_names() {
            let live: Vec<_> = db.scan(table).unwrap().collect();
            let back: Vec<_> = restored.scan(table).unwrap().collect();
            assert_eq!(live, back);
        }
        assert_eq!(
            restored.lookup("t", "by-x", "[1,2]").unwrap(),
            vec!["b", "c"]
        );
        assert_eq!(
            restored.lookup("t", "by-x", "[1,2]").unwrap(),
            db.lookup("t", "by-x", "[1,2]").unwrap()
        );
    }

    #[test]
    fn restore_from_empty_snapshot_is_empty() {
        let db = JsonStore::restore("fresh", b"").unwrap();
        assert_eq!(db.name(), "fresh");
        assert!(db.table_names().is_empty());
    }

    #[test]
    fn restore_from_a_torn_snapshot_errors() {
        let snapshot = store_with_data().snapshot();
        let torn = &snapshot[..snapshot.len() - 3];
        assert!(matches!(
            JsonStore::restore("test", torn),
            Err(DbError::Serialization(_))
        ));
    }

    #[test]
    fn serialized_size_is_constant_under_put_delete_cycles() {
        let cycle = |db: &mut JsonStore| {
            db.put("t", "k", json!({"consumer": "u1", "n": 7})).unwrap();
            db.delete("t", "k").unwrap();
        };
        let mut db = JsonStore::new("test");
        db.create_table("t").unwrap();
        db.add_index("t", "by-consumer", "consumer").unwrap();
        cycle(&mut db);
        let after_one = serde_json::to_vec(&db).unwrap().len();
        for _ in 1..1_000 {
            cycle(&mut db);
        }
        assert_eq!(serde_json::to_vec(&db).unwrap().len(), after_one);
        assert_eq!(db.snapshot().len(), after_one);
    }

    #[test]
    fn state_with_a_legacy_wal_field_restores() {
        let legacy = br#"{"indexes":{},"name":"bsmdb","tables":{"sessions":{"7":1}},"wal":{"records":[{"CreateTable":{"table":"sessions"}}]}}"#;
        let db: JsonStore = serde_json::from_slice(legacy).unwrap();
        assert_eq!(db.get("sessions", "7"), Some(&json!(1)));
        let restored = JsonStore::restore("bsmdb", legacy).unwrap();
        assert_eq!(restored.table_len("sessions"), 1);
        assert!(!String::from_utf8(restored.snapshot())
            .unwrap()
            .contains("wal"));
    }

    #[test]
    fn rewriting_a_row_in_place_equals_replacing_it() {
        let rows = [
            json!({"c": {"books": {"rust": 1.5, "go": 0.5}, "music": [1, 2, 3]}, "n": "a"}),
            json!({"c": {"books": {"rust": 2.0, "zig": 0.1}, "music": [4]}, "m": null}),
            json!({"c": {"books": [], "music": {"jazz": 1}}, "n": 7}),
            json!([{"x": 1}, {"y": [2]}, 3]),
            json!([{"x": 2}]),
            json!("scalar"),
            json!({"c": {"books": {"rust": 1.0}}}),
        ];
        let mut db = JsonStore::new("test");
        db.create_table("t").unwrap();
        db.add_index("t", "by-n", "n").unwrap();
        for row in &rows {
            db.put("t", "k", row.clone()).unwrap();
            assert_eq!(db.get("t", "k"), Some(row));
            let n = row.get("n").map(|n| match n {
                serde_json::Value::String(s) => s.clone(),
                other => other.to_string(),
            });
            let indexed: Vec<String> = db
                .indexes
                .get("t")
                .unwrap()
                .get("by-n")
                .unwrap()
                .map
                .keys()
                .cloned()
                .collect();
            assert_eq!(indexed, n.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn scan_iterates_in_key_order() {
        let db = store_with_data();
        let keys: Vec<&str> = db.scan("t").unwrap().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn field_index_lookup_finds_rows_by_field() {
        let mut db = JsonStore::new("test");
        db.create_table("tx").unwrap();
        db.put("tx", "1", json!({"consumer": "u1", "amount": 5}))
            .unwrap();
        db.put("tx", "2", json!({"consumer": "u2", "amount": 7}))
            .unwrap();
        db.put("tx", "3", json!({"consumer": "u1", "amount": 9}))
            .unwrap();
        db.add_index("tx", "by-consumer", "consumer").unwrap();
        assert_eq!(
            db.lookup("tx", "by-consumer", "u1").unwrap(),
            vec!["1", "3"]
        );
        assert_eq!(
            db.lookup("tx", "by-consumer", "u9").unwrap(),
            Vec::<&str>::new()
        );
        let rows = db.lookup_rows("tx", "by-consumer", "u2").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1["amount"], json!(7));
    }

    #[test]
    fn field_index_is_maintained_on_put_and_delete() {
        let mut db = JsonStore::new("test");
        db.create_table("tx").unwrap();
        db.add_index("tx", "by-consumer", "consumer").unwrap();
        db.put("tx", "1", json!({"consumer": "u1"})).unwrap();
        assert_eq!(db.lookup("tx", "by-consumer", "u1").unwrap(), vec!["1"]);
        // overwrite moves the row under a new index value
        db.put("tx", "1", json!({"consumer": "u2"})).unwrap();
        assert!(db.lookup("tx", "by-consumer", "u1").unwrap().is_empty());
        assert_eq!(db.lookup("tx", "by-consumer", "u2").unwrap(), vec!["1"]);
        db.delete("tx", "1").unwrap();
        assert!(db.lookup("tx", "by-consumer", "u2").unwrap().is_empty());
    }

    #[test]
    fn field_index_supports_nested_paths_and_numbers() {
        let mut db = JsonStore::new("test");
        db.create_table("tx").unwrap();
        db.put("tx", "a", json!({"item": {"id": 7}})).unwrap();
        db.add_index("tx", "by-item", "item.id").unwrap();
        assert_eq!(db.lookup("tx", "by-item", "7").unwrap(), vec!["a"]);
        // rows missing the field are simply unindexed
        db.put("tx", "b", json!({"other": 1})).unwrap();
        assert_eq!(db.lookup("tx", "by-item", "7").unwrap(), vec!["a"]);
    }

    #[test]
    fn unknown_index_errors() {
        let mut db = JsonStore::new("test");
        db.create_table("tx").unwrap();
        assert!(matches!(
            db.lookup("tx", "nope", "x"),
            Err(DbError::UnknownIndex(_))
        ));
        assert!(matches!(
            db.add_index("ghost", "i", "f"),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn create_table_is_idempotent() {
        let mut db = JsonStore::new("test");
        db.create_table("t").unwrap();
        db.put("t", "k", json!(1)).unwrap();
        db.create_table("t").unwrap();
        assert_eq!(db.get("t", "k"), Some(&json!(1)));
    }
}
