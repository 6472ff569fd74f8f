//! A one-file tree for the hot-list sweep: `Matrix::matmul_into` is
//! defined in library code, `test_only_helper` only in test code.

pub struct Matrix;

impl Matrix {
    pub fn matmul_into(&self, out: &mut Matrix) {
        let _ = out;
    }
}

#[cfg(test)]
mod tests {
    fn test_only_helper() {}
}
