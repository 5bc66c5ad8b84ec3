// Fixture: decodes that spell out an encoding the `Wire` impls own, and
// the forms the rule must leave alone.
fn read_ids(r: &mut WireReader<'_>) -> Result<Vec<BlobId>> {
    let n = r.get_u64()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(BlobId::new(r.get_u64()?));
    }
    Ok(out)
}

fn read_version(reader: &mut WireReader<'_>) -> Result<Version> {
    // lint:allow(one-codec): fixture override with a documented reason
    Ok(Version::new(reader.get_u64()?))
}

// Through the trait: one encoding, wherever it travels.
fn read_ids_once(r: &mut WireReader<'_>) -> Result<Vec<BlobId>> {
    Vec::<BlobId>::get(r)
}

// A plain varint is not a list count or an id.
fn read_size(r: &mut WireReader<'_>) -> Result<u64> {
    r.get_u64()
}

#[cfg(test)]
mod tests {
    fn pinned(r: &mut WireReader<'_>) -> BlobId {
        BlobId::new(r.get_u64().unwrap())
    }
}
