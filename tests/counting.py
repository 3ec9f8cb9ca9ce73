"""An int that counts the products and floor divisions it takes part in,
so that a work function can be checked against its kernel's own loop."""


class Counted(int):
    ops = 0  # products and floor divisions taken
    product_bits = 0  # sum over the products of their factors' bit lengths multiplied

    @classmethod
    def reset(cls):
        cls.ops = cls.product_bits = 0

    def __mul__(self, other):
        Counted.ops += 1
        Counted.product_bits += abs(int(self)).bit_length() * abs(int(other)).bit_length()
        return Counted(int(self) * int(other))

    __rmul__ = __mul__

    def __floordiv__(self, other):
        Counted.ops += 1
        return Counted(int(self) // int(other))

    def __add__(self, other):
        return Counted(int(self) + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Counted(int(self) - int(other))

    def __rsub__(self, other):
        return Counted(int(other) - int(self))

    def __neg__(self):
        return Counted(-int(self))


def counted(rows):
    return [[Counted(x) for x in row] for row in rows]
