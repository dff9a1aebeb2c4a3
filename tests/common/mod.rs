//! Helpers shared by the key-order golden tests.

/// Every JSON object key in document order: a quoted token directly
/// followed by a colon (spaces allowed between). Values are never
/// followed by `:` in the workspace's documents, so the scan is exact.
///
/// This is a plain text scan on purpose: it is the independent
/// reference the JSON writer is checked against, so it shares no code
/// with it.
pub fn ordered_keys(json: &str) -> Vec<String> {
    let bytes = json.as_bytes();
    let mut keys = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let start = i + 1;
        let mut j = start;
        while j < bytes.len() && bytes[j] != b'"' {
            if bytes[j] == b'\\' {
                j += 1;
            }
            j += 1;
        }
        let mut k = j + 1;
        while k < bytes.len() && bytes[k] == b' ' {
            k += 1;
        }
        if k < bytes.len() && bytes[k] == b':' {
            keys.push(json[start..j].to_string());
        }
        i = j + 1;
    }
    keys
}
