"""The sparse core shared by every carrier, and tensors over it.

Every structure in this package is a finite sum of basis keys with nonzero
Laurent coefficients: PBW monomials (Element), normal-form operator words
(Operator), wedge monomials with a right coefficient (Form), and tuples of
those (Tensor).  In each of them the product of two basis keys is c q**k
times a single key, or zero, so a carrier is a key type plus a key merge

    merge(key1, key2) -> (c, k, key) or None

with c a nonzero rational (a sign in every merge of this package).  Sparse
holds the arithmetic the carriers share, SpaceSparse adds what the carriers
over the n-generator space share, and collect() is the one
accumulate-and-prune loop behind all of it.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import LaurentScalar, format_term, join_terms

_SCALARS = (int, Fraction, LaurentScalar)


def collect(pairs, start: dict | None = None) -> dict:
    """Sum (key, LaurentScalar) pairs, onto a copy of the clean map start if
    given, into {key: nonzero coefficient}."""
    out = dict(start) if start else {}
    for key, c in pairs:
        s = out.get(key)
        s = c if s is None else s + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def as_scalar(value) -> LaurentScalar:
    return value if isinstance(value, LaurentScalar) else LaurentScalar({0: value})


class Sparse:
    """A finite combination {key: nonzero LaurentScalar} of basis keys.

    Holds only the key-generic arithmetic.  A carrier names the fields that
    fix its space in _fields (and __slots__), and supplies the hooks
    _check_key, _space and _merge.  Immutable by convention.
    """

    __slots__ = ("terms",)
    _fields: tuple = ()
    _space_name = "space"

    def _collect_items(self, terms) -> dict:
        """Validate and sum the (key, coefficient) items of a dict or iterable."""
        items = terms.items() if isinstance(terms, dict) else terms or ()
        return collect((self._check_key(key), as_scalar(c)) for key, c in items)

    def _like(self, terms: dict, **fields):
        """A value of this carrier holding the clean map terms, with the
        fields of this value except those given."""
        result = object.__new__(type(self))
        for name in self._fields:
            setattr(result, name, fields[name] if name in fields else getattr(self, name))
        result.terms = terms
        return result

    def _check_space(self, other) -> None:
        if self._space() != other._space():
            raise ValueError(f"{self._space_name} mismatch: {self._space()} != {other._space()}")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_space(other)
        return self._like(collect(other.terms.items(), self.terms))

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff):
        coeff = as_scalar(coeff)
        single = coeff.single_term()
        if single is None:
            return self._like({key: c * coeff for key, c in self.terms.items()} if coeff else {})
        k, c = single
        return self._like({key: v.shift(c, k) for key, v in self.terms.items()})

    def _products(self, other, merge):
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                merged = merge(k1, k2)
                if merged is not None:
                    c, k, key = merged
                    yield key, (c1 * c2).shift(c, k)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        self._check_space(other)
        return self._like(collect(self._products(other, self._merge)))

    def __rmul__(self, other):
        # Scalars commute with everything; the product of two values is __mul__.
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def map_keys(self, fn):
        """Apply the key map fn(key) -> (c, k, key) or None to every term,
        multiplying the coefficient by c q**k (None drops the term)."""
        def pairs():
            for key, coeff in self.terms.items():
                mapped = fn(key)
                if mapped is not None:
                    c, k, new = mapped
                    yield new, coeff.shift(c, k)
        return self._like(collect(pairs()))

    def linear(self, fn, like):
        """The linear extension of fn, which sends a key to a value of the
        carrier and space of like: the sum of c fn(key) over the terms."""
        return like._like(collect(pair for key, c in self.terms.items()
                                  for pair in fn(key).scale(c).terms.items()))

    def single_term(self):
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        return None

    def sorted_terms(self):
        return sorted(self.terms.items())


class SpaceSparse(Sparse):
    """A Sparse value over the n-generator space (Element, Operator, Form):
    the dimension n, the unit under _unit_key(), powers, and rendering and
    JSON through the carrier's _key_str, _key_json and _key_from_json (Form
    renders itself)."""

    __slots__ = ("n",)
    _fields = ("n",)
    _space_name = "dimension"

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = n
        self.terms = self._collect_items(terms)

    def _space(self):
        return self.n

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    @classmethod
    def one(cls, n: int):
        unit = cls(n)
        return unit._like({unit._unit_key(): LaurentScalar.one()})

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = self.one(self.n)
        while exponent and out:
            out, exponent = out * self, exponent - 1
        return out

    def __str__(self) -> str:
        return join_terms(format_term(c, self._key_str(key)) for key, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, {self})"

    def to_json(self):
        return {"n": self.n, "terms": [{**self._key_json(key), "coeff": c.to_json()["coeff"]}
                                       for key, c in self.sorted_terms()]}

    @classmethod
    def from_json(cls, data):
        return cls(data["n"], {cls._key_from_json(term): LaurentScalar.from_json(term)
                               for term in data["terms"]})


def _replace(keys: tuple, pos: int, width: int, part: tuple) -> tuple:
    return keys[:pos] + part + keys[pos + width:]


class Tensor(Sparse):
    """k-slot tensor with one global Laurent coefficient per key tuple.

    slot_muls[i](a, b) -> (c, k, key) merges two keys of slot i, or returns
    None when the product is zero (wedge collisions); the tensor product is
    componentwise, (a1 x ... x am)(b1 x ... x bm) = a1b1 x ... x ambm.
    """

    __slots__ = ("slot_muls",)
    _fields = ("slot_muls",)
    _space_name = "slot count"

    def __init__(self, slot_muls, terms=None):
        self.slot_muls = tuple(slot_muls)
        self.terms = self._collect_items(terms)

    def _check_key(self, keys):
        keys = tuple(keys)
        if len(keys) != len(self.slot_muls):
            raise ValueError(f"expected {len(self.slot_muls)} slots, got {len(keys)}")
        return keys

    def _space(self):
        return self.slot_count

    @property
    def slot_count(self) -> int:
        return len(self.slot_muls)

    def _merge(self, keys1, keys2):
        c, k, merged = 1, 0, []
        for mul, a, b in zip(self.slot_muls, keys1, keys2):
            res = mul(a, b)
            if res is None:
                return None
            c *= res[0]
            k += res[1]
            merged.append(res[2])
        return c, k, tuple(merged)

    def map_slot(self, pos: int, fn) -> "Tensor":
        """Apply the key map fn(key) -> (c, k, key) to slot pos of every term."""
        def on_keys(keys):
            c, k, key = fn(keys[pos])
            return c, k, _replace(keys, pos, 1, (key,))
        return self.map_keys(on_keys)

    def expand_slot(self, pos: int, fn, inserted_muls) -> "Tensor":
        """Replace slot pos via fn(key) -> iterable of (scalar, key_tuple).

        The replacement key tuples share the slot-merge functions given in
        inserted_muls (length may differ from 1, e.g. a coproduct expansion).
        """
        muls = _replace(self.slot_muls, pos, 1, tuple(inserted_muls))
        pairs = ((_replace(keys, pos, 1, tuple(part)), coeff * scalar)
                 for keys, coeff in self.terms.items() for scalar, part in fn(keys[pos]))
        return self._like(collect(pairs), slot_muls=muls)

    def contract_slot(self, pos: int, fn) -> "Tensor":
        """Drop slot pos, scaling each term by the scalar fn(key)."""
        if self.slot_count < 2:
            raise ValueError("cannot contract the last slot")
        return self.expand_slot(pos, lambda key: ((fn(key), ()),), ())

    def merge_slots(self, pos: int) -> "Tensor":
        """Multiply slots pos and pos+1 together (they must share a slot kind)."""
        if pos + 1 >= self.slot_count:
            raise ValueError("merge_slots needs two adjacent slots")
        mul = self.slot_muls[pos]

        def on_keys(keys):
            merged = mul(keys[pos], keys[pos + 1])
            if merged is None:
                return None
            c, k, key = merged
            return c, k, _replace(keys, pos, 2, (key,))
        return self._like(self.terms, slot_muls=_replace(self.slot_muls, pos, 2, (mul,))).map_keys(on_keys)

    def swap_slots(self, i: int, j: int) -> "Tensor":
        """The flip map on slots i and j; each slot's merge moves with its keys."""
        def swapped(seq):
            out = list(seq)
            out[i], out[j] = out[j], out[i]
            return tuple(out)
        return self._like({swapped(keys): c for keys, c in self.terms.items()},
                          slot_muls=swapped(self.slot_muls))

    def __repr__(self) -> str:
        body = " + ".join(f"{coeff} * {keys}" for keys, coeff in self.sorted_terms())
        return f"Tensor({body or '0'})"


def expansion(tensor_of):
    """The Tensor.expand_slot map of a function sending a key to a tensor."""
    def fn(key):
        return [(c, keys) for keys, c in tensor_of(key).terms.items()]
    return fn
