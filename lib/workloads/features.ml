(* Table I: feature comparison of typical systems.  The SenSmart column
   is cross-checked against the implementation by the test suite (each
   "Yes" has a test that exercises the feature); the other columns
   record the paper's claims about the related systems. *)

type support = Yes | No | Partial | Manual | Automatic | NA

let show = function
  | Yes -> "Yes"
  | No -> "No"
  | Partial -> "Partial"
  | Manual -> "Manual"
  | Automatic -> "Automatic"
  | NA -> "N/A"

type row = {
  feature : string;
  tinyos : support;
  mate : support;
  mantis : support;
  tkernel : support;
  retos : support;
  liteos : support;
  sensmart : support;
}

let rows : row list =
  [ { feature = "TinyOS Compatible"; tinyos = NA; mate = No; mantis = No;
      tkernel = Yes; retos = No; liteos = No; sensmart = Yes };
    { feature = "Preemptive Multitasking"; tinyos = Yes; mate = No; mantis = Yes;
      tkernel = Partial; retos = Yes; liteos = Yes; sensmart = Yes };
    { feature = "Concurrent Applications"; tinyos = No; mate = NA; mantis = No;
      tkernel = No; retos = No; liteos = No; sensmart = Yes };
    { feature = "Interrupt-free Preemption"; tinyos = Yes; mate = NA; mantis = No;
      tkernel = Yes; retos = No; liteos = No; sensmart = Yes };
    { feature = "Memory Protection"; tinyos = No; mate = Yes; mantis = No;
      tkernel = Partial; retos = Yes; liteos = No; sensmart = Yes };
    { feature = "Logical Memory Address"; tinyos = No; mate = NA; mantis = No;
      tkernel = No; retos = No; liteos = No; sensmart = Yes };
    { feature = "Physical Mem Management"; tinyos = Automatic; mate = Automatic;
      mantis = Automatic; tkernel = Automatic; retos = Automatic;
      liteos = Manual; sensmart = Automatic };
    { feature = "Stack Relocation"; tinyos = No; mate = No; mantis = No;
      tkernel = No; retos = No; liteos = No; sensmart = Yes } ]

let columns =
  [ "TinyOS/TinyThread"; "Mate"; "MANTIS OS"; "t-kernel"; "RETOS"; "LiteOS";
    "SenSmart" ]
