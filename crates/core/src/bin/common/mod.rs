//! Output files shared by the `simulate` and `figures` binaries.

use std::fs::File;
use std::io::Write as _;

/// A file an output flag names. It is created before the run, so a bad
/// path fails at once instead of after the whole simulation.
pub(crate) struct OutputFile {
    flag: &'static str,
    path: String,
    file: File,
}

impl OutputFile {
    /// Creates (or truncates) `path` for `flag`, or says why it cannot.
    pub(crate) fn create(flag: &'static str, path: &str) -> Result<Self, String> {
        File::create(path)
            .map(|file| OutputFile {
                flag,
                path: path.to_string(),
                file,
            })
            .map_err(|e| format!("{flag} {path}: cannot create: {e}"))
    }

    /// The path the flag named.
    pub(crate) fn path(&self) -> &str {
        &self.path
    }

    /// Writes the whole output, or says why it could not.
    pub(crate) fn write(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.file
            .write_all(bytes)
            .map_err(|e| format!("{} {}: cannot write: {e}", self.flag, self.path))
    }
}
