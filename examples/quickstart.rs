//! Quickstart: the paper's running example (Figures 8–11).
//!
//! Creates an `Employee` dataset with the tuple compactor enabled, ingests
//! the records from Fig 9, and walks through what the framework does at
//! each LSM lifecycle event: schema inference at flush, union promotion on
//! type change, schema shrinking on delete.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use asterix_tc::prelude::*;
use asterix_tc::schema::SchemaNode;

fn print_schema(ds: &Dataset, when: &str) {
    let schema = ds.schema_snapshot().expect("inferred dataset has a schema");
    println!("\nschema {when}:");
    let root = schema.root();
    let SchemaNode::Object { fields, .. } = schema.node(root) else {
        unreachable!("root is an object")
    };
    if fields.is_empty() {
        println!("  (empty)");
    }
    for (fid, node_id) in fields {
        let name = schema.field_name(*fid).unwrap_or("?");
        let node = schema.node(*node_id);
        let ty = match node {
            SchemaNode::Union { children, .. } => {
                let parts: Vec<String> = children.iter().map(|(t, _)| t.to_string()).collect();
                format!("union({})", parts.join(", "))
            }
            n => n.type_tag().map(|t| t.to_string()).unwrap_or_default(),
        };
        println!("  {name}: {ty}  (counter {})", node.counter());
    }
}

fn main() -> Result<(), AdmError> {
    // CREATE TYPE EmployeeType AS OPEN { id: int };
    // CREATE DATASET Employee(EmployeeType) PRIMARY KEY id
    //   WITH {"tuple-compactor-enabled": true};              (paper Fig 8)
    let config = DatasetConfig::new("Employee", "id").with_format(StorageFormat::Inferred);
    let device = Arc::new(Device::new(DeviceProfile::NVME_SSD));
    let cache = Arc::new(BufferCache::new(4096));
    let employee = Dataset::new(config, device, cache);
    // One logical writer per partition, enforced by the token.
    let mut writer = employee.writer();

    // ---- first flush (Fig 9a) ----
    writer.insert(&parse(r#"{"id": 0, "name": "Kim", "age": 26}"#)?)?;
    writer.insert(&parse(r#"{"id": 1, "name": "John", "age": 22}"#)?)?;
    employee.flush().unwrap();
    println!("flushed C0: 2 records, schema inferred during the flush");
    print_schema(&employee, "after first flush (paper S0)");

    // ---- second flush: age changes type (Fig 9b) ----
    writer.insert(&parse(r#"{"id": 2, "name": "Ann"}"#)?)?;
    writer.insert(&parse(r#"{"id": 3, "name": "Bob", "age": "old"}"#)?)?;
    employee.flush().unwrap();
    println!("\nflushed C1: 'age' seen as string → promoted to a union");
    print_schema(&employee, "after second flush (paper S1)");

    // ---- merge: the newest schema covers both components (Fig 9c) ----
    employee.force_full_merge().unwrap();
    println!("\nmerged [C0,C1]: kept the newest schema, no re-inference");
    println!("components: {}", employee.primary().components().len());

    // ---- records stay queryable, compacted on disk ----
    for pk in 0..4 {
        let v = employee.get(pk)?.expect("present");
        println!("  get({pk}) = {v}");
    }

    // ---- delete: anti-matter + anti-schema shrink the schema (Fig 11) ----
    writer.delete(3)?;
    employee.flush().unwrap();
    print_schema(&employee, "after deleting id 3 (union collapses back to int)");
    let schema = employee.schema_snapshot().expect("inferred dataset has a schema");
    let (_, age) = schema.lookup_field(schema.root(), "age").expect("ids 0 and 1 keep age");
    let age = schema.node(age);
    assert!(!matches!(age, SchemaNode::Union { .. }), "the anti-schema must drop the union");
    assert_eq!(age.type_tag(), Some(TypeTag::Int64), "age must be int64 again");

    println!("\non-disk size: {} bytes", employee.disk_bytes());
    Ok(())
}
