//! A010 fixture: `Shape::Hexagon` appears only in patterns and a test,
//! `Shape::Blob` only in patterns and a string; `Square` is built through
//! `Self::` and `Ghost` carries an exemption. Comments do not count:
//! Shape::Blob.

pub enum Shape {
    Circle(f64),
    Square {
        side: f64,
    },
    Hexagon,
    Blob,
    // A010: decoded from the wire format's tag 4.
    Ghost,
}

impl Shape {
    pub fn unit_square() -> Self {
        Self::Square { side: 1.0 }
    }

    pub fn sides(&self) -> u32 {
        match self {
            Shape::Circle(_) => 0,
            Shape::Square { .. } => 4,
            Shape::Hexagon => 6,
            Shape::Blob | Shape::Ghost => 0,
        }
    }
}

pub fn circle(r: f64) -> Shape {
    let shape = Shape::Circle(r);
    if let Shape::Hexagon = shape {
        return shape;
    }
    let _ = "Shape::Blob";
    shape
}

#[cfg(test)]
mod tests {
    #[test]
    fn hexagon() {
        assert_eq!(super::Shape::Hexagon.sides(), 6);
    }
}
